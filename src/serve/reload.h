#ifndef E2GCL_SERVE_RELOAD_H_
#define E2GCL_SERVE_RELOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "serve/lru_cache.h"
#include "serve/quantized_table.h"
#include "tensor/matrix.h"

namespace e2gcl {

struct ServeOptions;  // embedding_server.h (which includes this header)

/// The row order of a table sorted by descending norm, ties by
/// ascending id: the order the exact TopK scan visits rows in, so that
/// the norm of the next unscanned row bounds every row after it.
struct NormOrder {
  /// ids[r]: the node whose row sits at row r of the sorted table.
  std::vector<std::int32_t> ids;
  /// norms[r]: KernelDotBound::NormUpper of row r, an upper bound on its
  /// exact norm; non-increasing in r.
  std::vector<float> norms;
};

/// Sorts the rows of `table` in place by descending NormUpper, ties by
/// ascending row index, and returns the order. The rows move along the
/// permutation's cycles through one row of scratch, so no second table
/// is ever resident. Rows are finite; a NaN row sorts first.
NormOrder SortRowsByNorm(Matrix* table);

/// One immutable-once-published model generation: everything whose
/// contents depend on the checkpoint weights. The EmbeddingServer holds
/// the current generation behind a `shared_ptr` and swaps it RCU-style
/// on hot reload; every request pins the generation it was admitted
/// under, so in-flight queries stay bit-identical to the model they
/// started on and never observe a half-switched state. The row cache
/// and quantized table live *inside* the generation — a reload starts
/// from a cold cache rather than risking rows encoded by older weights.
///
/// Mutability after publication is confined to single-writer members:
/// `cache` is internally synchronized, and `full`, `order` and `row_of`
/// are written only by the flusher thread (the first fp32 TopK
/// materializes `full` in lazy mode and sorts it in either mode). There is
/// deliberately no mutex here — the EmbeddingServer's annotated mu_
/// (see core/thread_annotations.h and DESIGN.md "Concurrency
/// discipline") guards only the *pointer* to the current generation;
/// the pointed-to state is immutable or single-writer by construction,
/// which is what makes the RCU swap safe without per-state locking.
struct ModelState {
  /// Monotonic reload epoch: 1 for the initially loaded checkpoint,
  /// +1 per successful reload. Echoed in every response's
  /// `generation` field.
  std::uint64_t generation = 0;
  std::unique_ptr<GcnEncoder> encoder;
  /// Lazy-mode row cache (nullptr in precompute mode). Rows come from it
  /// only while `full` is empty.
  std::unique_ptr<RowCache> cache;
  /// Full |V| x d embedding matrix; rows() == 0 until materialized
  /// (at build time in precompute mode, by the flusher on the first
  /// fp32 TopK in lazy mode). Once it exists it serves every row. Rows
  /// are in node order until the first fp32 TopK sorts them by norm,
  /// and in `order` after.
  Matrix full;
  /// The order of `full`'s rows once sorted; empty until then.
  NormOrder order;
  /// Once `full` is sorted: row_of[v] is the row of `full` holding node
  /// v. Empty until then.
  std::vector<std::int32_t> row_of;
  /// Int8 table (empty unless ServeOptions::quantize_int8).
  QuantizedEmbeddingTable quantized;
};

/// Validates `ckpt` against `graph` + `options` (fingerprint, encoder
/// layout inference, parameter shapes, feature width — the same checks
/// initial Load performs) and builds a complete generation: encoder
/// weights loaded, cache/precompute/quantized state constructed. This
/// is the shared path behind both server construction and hot reload,
/// so a reloaded checkpoint can never bypass a validation the initial
/// one went through. Returns nullptr with `*error` set on any failure;
/// the caller's serving state is untouched.
std::shared_ptr<ModelState> BuildModelState(const Graph& graph,
                                            const TrainerCheckpoint& ckpt,
                                            const ServeOptions& options,
                                            std::uint64_t generation,
                                            std::string* error);

}  // namespace e2gcl

#endif  // E2GCL_SERVE_RELOAD_H_
