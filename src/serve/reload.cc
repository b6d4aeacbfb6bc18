#include "serve/reload.h"

#include <string>
#include <utility>

#include "serve/embedding_server.h"

namespace e2gcl {

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
  GcnConfig config = options.encoder;
  if (config.dims.empty()) {
    if (!InferEncoderLayout(ckpt.encoder_params, &config.dims,
                            &config.bias)) {
      return fail("checkpoint encoder parameters form no consistent GCN "
                  "layer chain");
    }
  }
  // Serving is inference-only; dropout would be ignored anyway.
  config.dropout = 0.0f;
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
    state->cache = std::make_unique<ShardedRowCache>(options.cache_capacity,
                                                     options.cache_shards);
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
