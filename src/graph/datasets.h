#ifndef E2GCL_GRAPH_DATASETS_H_
#define E2GCL_GRAPH_DATASETS_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace e2gcl {

/// Named synthetic stand-ins for the paper's benchmark datasets
/// (Tab. III). Node counts match the paper for the five small datasets;
/// feature dimensions are scaled down for CPU runtimes, and the two OGB
/// graphs are scaled proportionally (see DESIGN.md).
///
/// Valid names: "cora", "citeseer", "photo", "computers", "cs",
/// "arxiv", "products".
struct DatasetSpec {
  std::string name;
  SbmSpec sbm;
};

/// Spec for `name`; nullopt for an unknown name.
std::optional<DatasetSpec> FindDatasetSpec(const std::string& name);

/// Spec for `name`; aborts on unknown names.
DatasetSpec GetDatasetSpec(const std::string& name);

/// All seven node-classification dataset names in paper order.
std::vector<std::string> NodeClassificationDatasets();

/// The five small datasets used by Tables IV and VI-VIII.
std::vector<std::string> SmallDatasets();

/// Materializes the named dataset. Deterministic in (name, seed).
Graph LoadDataset(const std::string& name, std::uint64_t seed);

/// Materializes the named dataset scaled to `scale * num_nodes` nodes
/// (used by parameter-sweep benches to keep runtimes bounded). The
/// degree/feature structure is preserved.
Graph LoadDatasetScaled(const std::string& name, double scale,
                        std::uint64_t seed);

}  // namespace e2gcl

#endif  // E2GCL_GRAPH_DATASETS_H_
