#include "baselines/selectors.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "cluster/kmeans.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

/// Nearest-selected-node lambda weights in R space (plain Euclidean —
/// baselines have no cluster structure to exploit). O(n * k).
void AssignWeights(const Matrix& r, SelectionResult& result, Rng& rng) {
  const std::int64_t n = r.rows();
  const std::int64_t k = static_cast<std::int64_t>(result.nodes.size());
  result.weights.assign(k, 0.0f);
  // Full assignment is O(n * k * d); when that exceeds a budget,
  // estimate the weights from a node subsample (weights only reweight
  // the loss, an unbiased estimate is sufficient).
  std::vector<std::int64_t> probes;
  double per_probe_weight = 1.0;
  if (n * k <= 4'000'000) {
    probes.resize(n);
    std::iota(probes.begin(), probes.end(), 0);
  } else {
    const std::int64_t m = std::max<std::int64_t>(1, 4'000'000 / k);
    probes = rng.SampleWithoutReplacement(n, std::min(m, n));
    per_probe_weight =
        static_cast<double>(n) / static_cast<double>(probes.size());
  }
  double objective = 0.0;
  for (std::int64_t v : probes) {
    float best = std::numeric_limits<float>::max();
    std::int64_t best_i = 0;
    for (std::int64_t i = 0; i < k; ++i) {
      const float d = RowSquaredDistance(r, v, r, result.nodes[i]);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    result.weights[best_i] += static_cast<float>(per_probe_weight);
    objective += std::sqrt(best) * per_probe_weight;
  }
  result.representativity = objective;
}

SelectionResult SelectRandom(std::int64_t n, std::int64_t k, Rng& rng) {
  SelectionResult res;
  res.nodes = rng.SampleWithoutReplacement(n, k);
  return res;
}

SelectionResult SelectDegree(const Graph& g, std::int64_t k, Rng& rng) {
  std::vector<float> w(g.num_nodes);
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    w[v] = std::log(static_cast<float>(g.Degree(v)) + 1.0f);
  }
  SelectionResult res;
  res.nodes = rng.WeightedSampleWithoutReplacement(w, k);
  // Zero-degree-only corner: top up uniformly.
  while (static_cast<std::int64_t>(res.nodes.size()) < k) {
    const std::int64_t v = rng.UniformInt(g.num_nodes);
    if (std::find(res.nodes.begin(), res.nodes.end(), v) == res.nodes.end()) {
      res.nodes.push_back(v);
    }
  }
  return res;
}

SelectionResult SelectKMeansEven(const Matrix& r, std::int64_t k, Rng& rng) {
  KMeansOptions opts;
  opts.num_clusters = 10;
  KMeansResult km = KMeans(r, opts, rng);
  SelectionResult res;
  // Draw nodes evenly across clusters, round-robin.
  std::vector<std::vector<std::int64_t>> pools = km.clusters;
  for (auto& pool : pools) rng.Shuffle(pool);
  std::size_t cluster = 0;
  std::vector<std::size_t> cursor(pools.size(), 0);
  while (static_cast<std::int64_t>(res.nodes.size()) < k) {
    bool advanced = false;
    for (std::size_t tries = 0; tries < pools.size(); ++tries) {
      auto& pool = pools[cluster];
      auto& cur = cursor[cluster];
      cluster = (cluster + 1) % pools.size();
      if (cur < pool.size()) {
        res.nodes.push_back(pool[cur++]);
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  return res;
}

SelectionResult SelectKCenterGreedy(const Matrix& r, std::int64_t k,
                                    Rng& rng) {
  const std::int64_t n = r.rows();
  SelectionResult res;
  std::vector<float> dist(n, std::numeric_limits<float>::max());
  std::int64_t cur = rng.UniformInt(n);
  res.nodes.push_back(cur);
  for (std::int64_t i = 1; i < k; ++i) {
    float far_d = -1.0f;
    std::int64_t far_v = 0;
    for (std::int64_t v = 0; v < n; ++v) {
      dist[v] = std::min(dist[v], RowSquaredDistance(r, v, r, cur));
      if (dist[v] > far_d) {
        far_d = dist[v];
        far_v = v;
      }
    }
    cur = far_v;
    res.nodes.push_back(cur);
  }
  std::sort(res.nodes.begin(), res.nodes.end());
  res.nodes.erase(std::unique(res.nodes.begin(), res.nodes.end()),
                  res.nodes.end());
  return res;
}

/// Grain-style diversified influence maximization, adapted to the
/// label-free setting: greedily add the node whose (feature-space
/// epsilon-ball ∪ 1-hop neighborhood) covers the most yet-uncovered
/// nodes; ties broken by degree. The epsilon radius is set to the
/// median nearest-neighbor distance over a sample.
SelectionResult SelectGrain(const Graph& g, const Matrix& r, std::int64_t k,
                            Rng& rng) {
  const std::int64_t n = r.rows();
  // Estimate epsilon from a sample of pairwise nearest distances.
  const std::int64_t sample = std::min<std::int64_t>(n, 256);
  auto sample_nodes = rng.SampleWithoutReplacement(n, sample);
  std::vector<float> nn_dist;
  nn_dist.reserve(sample);
  for (std::int64_t i = 0; i < sample; ++i) {
    float best = std::numeric_limits<float>::max();
    for (std::int64_t j = 0; j < sample; ++j) {
      if (i == j) continue;
      best = std::min(best, RowSquaredDistance(r, sample_nodes[i], r,
                                               sample_nodes[j]));
    }
    nn_dist.push_back(std::sqrt(best));
  }
  std::nth_element(nn_dist.begin(), nn_dist.begin() + nn_dist.size() / 2,
                   nn_dist.end());
  const float eps = 2.0f * nn_dist[nn_dist.size() / 2] + 1e-6f;
  const float eps2 = eps * eps;

  std::vector<char> covered(n, 0);
  SelectionResult res;
  std::vector<char> chosen(n, 0);
  // Candidate pool per round (full greedy is O(k n^2)); sample like the
  // E2GCL selector to stay tractable.
  const std::int64_t ns = std::min<std::int64_t>(n, 128);
  for (std::int64_t i = 0; i < k; ++i) {
    auto pool = rng.SampleWithoutReplacement(n, ns);
    double best_gain = -1.0;
    std::int64_t best_u = -1;
    for (std::int64_t u : pool) {
      if (chosen[u]) continue;
      double gain = 0.0;
      for (std::int32_t w : g.Neighbors(u)) {
        if (!covered[w]) gain += 1.0;
      }
      // Feature-ball coverage against a node subsample to bound cost.
      for (std::int64_t j = 0; j < sample; ++j) {
        const std::int64_t v = sample_nodes[j];
        if (!covered[v] && RowSquaredDistance(r, u, r, v) <= eps2) {
          gain += 1.0;
        }
      }
      gain += 1e-3 * std::log(static_cast<double>(g.Degree(u)) + 1.0);
      if (gain > best_gain) {
        best_gain = gain;
        best_u = u;
      }
    }
    if (best_u < 0) break;
    chosen[best_u] = 1;
    res.nodes.push_back(best_u);
    covered[best_u] = 1;
    for (std::int32_t w : g.Neighbors(best_u)) covered[w] = 1;
    for (std::int64_t j = 0; j < sample; ++j) {
      const std::int64_t v = sample_nodes[j];
      if (!covered[v] && RowSquaredDistance(r, best_u, r, v) <= eps2) {
        covered[v] = 1;
      }
    }
  }
  return res;
}

}  // namespace

SelectorKind SelectorKindFromName(const std::string& name) {
  if (name == "random") return SelectorKind::kRandom;
  if (name == "degree") return SelectorKind::kDegree;
  if (name == "kmeans") return SelectorKind::kKMeans;
  if (name == "kcg") return SelectorKind::kKCenterGreedy;
  if (name == "grain") return SelectorKind::kGrain;
  if (name == "ours") return SelectorKind::kE2gcl;
  E2GCL_CHECK_MSG(false, "unknown selector '%s'", name.c_str());
  return SelectorKind::kRandom;
}

std::string SelectorKindName(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kRandom: return "random";
    case SelectorKind::kDegree: return "degree";
    case SelectorKind::kKMeans: return "kmeans";
    case SelectorKind::kKCenterGreedy: return "kcg";
    case SelectorKind::kGrain: return "grain";
    case SelectorKind::kE2gcl: return "ours";
  }
  return "?";
}

SelectionResult SelectNodes(SelectorKind kind, const Graph& g,
                            const Matrix& r, std::int64_t budget,
                            const SelectorConfig& config, Rng& rng) {
  E2GCL_CHECK(budget > 0 && budget <= g.num_nodes);
  const auto t0 = std::chrono::steady_clock::now();
  SelectionResult res;
  switch (kind) {
    case SelectorKind::kRandom:
      res = SelectRandom(g.num_nodes, budget, rng);
      break;
    case SelectorKind::kDegree:
      res = SelectDegree(g, budget, rng);
      break;
    case SelectorKind::kKMeans:
      res = SelectKMeansEven(r, budget, rng);
      break;
    case SelectorKind::kKCenterGreedy:
      res = SelectKCenterGreedy(r, budget, rng);
      break;
    case SelectorKind::kGrain:
      res = SelectGrain(g, r, budget, rng);
      break;
    case SelectorKind::kE2gcl: {
      SelectorConfig cfg = config;
      cfg.budget = budget;
      return SelectCoreset(r, cfg, rng);
    }
  }
  AssignWeights(r, res, rng);
  res.seconds = SecondsSince(t0);
  return res;
}

}  // namespace e2gcl
