#include "serve/reload.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "serve/embedding_server.h"
#include "tensor/check.h"
#include "tensor/kernel_bounds.h"

namespace e2gcl {

NormOrder SortRowsByNorm(Matrix* table) {
  const std::int64_t n = table->rows();
  const std::int64_t d = table->cols();
  E2GCL_CHECK(n <= std::numeric_limits<std::int32_t>::max());
  struct Key {
    float norm;
    std::int32_t id;
  };
  std::vector<Key> keys(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) {
    keys[static_cast<std::size_t>(v)] = {
        KernelDotBound::NormUpper(table->RowPtr(v), d),
        static_cast<std::int32_t>(v)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.norm != b.norm ? a.norm > b.norm : a.id < b.id;
  });
  NormOrder order;
  order.ids.reserve(keys.size());
  order.norms.reserve(keys.size());
  for (const Key& key : keys) {
    order.ids.push_back(key.id);
    order.norms.push_back(key.norm);
  }
  keys = {};
  // Row r takes the row of node ids[r]. Each cycle of the permutation
  // holds its first row aside; every other row is read before it is
  // overwritten, because the walk overwrites a row only after copying
  // the one it came from.
  std::vector<float> held(static_cast<std::size_t>(d));
  std::vector<bool> placed(static_cast<std::size_t>(n), false);
  for (std::int64_t start = 0; start < n; ++start) {
    if (placed[static_cast<std::size_t>(start)]) continue;
    if (order.ids[static_cast<std::size_t>(start)] == start) continue;
    std::copy(table->RowPtr(start), table->RowPtr(start) + d, held.begin());
    for (std::int64_t r = start;;) {
      placed[static_cast<std::size_t>(r)] = true;
      const std::int64_t from = order.ids[static_cast<std::size_t>(r)];
      if (from == start) {
        std::copy(held.begin(), held.end(), table->RowPtr(r));
        break;
      }
      std::copy(table->RowPtr(from), table->RowPtr(from) + d,
                table->RowPtr(r));
      r = from;
    }
  }
  return order;
}

std::shared_ptr<ModelState> BuildModelState(const Graph& graph,
                                            const TrainerCheckpoint& ckpt,
                                            const ServeOptions& options,
                                            std::uint64_t generation,
                                            std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::shared_ptr<ModelState>();
  };
  if (graph.num_nodes <= 0 || graph.features.empty()) {
    return fail("serving requires a non-empty graph with node features");
  }
  if (options.expected_fingerprint != 0 &&
      ckpt.config_fingerprint != options.expected_fingerprint) {
    return fail("checkpoint config fingerprint does not match the expected "
                "fingerprint");
  }
  // The widths and bias flag come from the checkpoint's parameter
  // shapes; the other knobs keep the defaults of the encoder TrainLoop
  // builds (ReLU, linear final layer, no PReLU). Serving is
  // inference-only, so dropout stays 0.
  GcnConfig config;
  if (!InferEncoderLayout(ckpt.encoder_params, &config.dims, &config.bias)) {
    return fail("checkpoint encoder parameters form no consistent GCN "
                "layer chain");
  }
  if (config.dims.front() != graph.feature_dim()) {
    return fail("checkpoint encoder input width does not match the graph's "
                "feature dimension");
  }
  Rng rng(0);  // Initial weights are immediately overwritten.
  auto encoder = std::make_unique<GcnEncoder>(config, rng);
  if (!encoder->params().ShapesMatch(ckpt.encoder_params)) {
    return fail("checkpoint encoder parameter shapes do not match the "
                "encoder configuration");
  }
  // A CRC-valid checkpoint can still hold a diverged weight, whose rows
  // and scores would be served as NaN.
  for (std::size_t i = 0; i < ckpt.encoder_params.size(); ++i) {
    if (!AllFinite(ckpt.encoder_params[i])) {
      return fail("checkpoint encoder parameter " + std::to_string(i) +
                  " holds a non-finite value");
    }
  }
  encoder->params().LoadValues(ckpt.encoder_params);

  auto state = std::make_shared<ModelState>();
  state->generation = generation;
  state->encoder = std::move(encoder);
  if (!options.precompute) {
    state->cache = std::make_unique<RowCache>(options.cache_capacity);
  }
  if (options.precompute || options.quantize_int8) {
    // A table encoded at load must be finite: a NaN or infinite row
    // poisons every TopK ranking it takes part in, and an int8 row scale.
    Matrix full = state->encoder->Encode(graph);
    if (!AllFinite(full)) {
      std::int64_t row = 0;
      while (AllFinite(full.Row(row))) ++row;
      return fail("encoded embedding row " + std::to_string(row) +
                  " holds a non-finite value");
    }
    if (options.quantize_int8) {
      state->quantized = QuantizedEmbeddingTable::Build(full);
    }
    // In lazy mode the fp32 matrix is dropped here, leaving the
    // 4x-smaller int8 table as the only |V|-resident state (TopK never
    // materializes `full` then).
    if (options.precompute) state->full = std::move(full);
  }
  return state;
}

}  // namespace e2gcl
