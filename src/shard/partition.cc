#include "shard/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/check.h"

namespace e2gcl {

namespace {

constexpr std::int64_t kSweepRows = std::int64_t{1} << 16;

std::int64_t CeilCap(std::int64_t total, int shards, double slack) {
  const double avg = static_cast<double>(total) / static_cast<double>(shards);
  return static_cast<std::int64_t>(std::floor(avg * (1.0 + slack))) + 1;
}

void BuildShardNodes(Partition* p) {
  p->shard_nodes.assign(p->num_shards, {});
  for (std::int64_t v = 0;
       v < static_cast<std::int64_t>(p->shard_of.size()); ++v) {
    p->shard_nodes[p->shard_of[v]].push_back(v);
  }
}

}  // namespace

Partition PartitionGraph(const AdjacencySource& adj,
                         const PartitionOptions& options) {
  const std::int64_t n = adj.num_nodes();
  const int s = options.num_shards;
  E2GCL_CHECK(s >= 1);
  const std::vector<std::int64_t>& rp = adj.row_ptr();

  Partition p;
  p.num_shards = s;
  p.shard_of.assign(n, 0);
  p.total_edges = adj.nnz() / 2;
  if (s == 1) {
    BuildShardNodes(&p);
    return p;
  }

  const std::int64_t count_cap = CeilCap(n, s, options.balance_slack);
  const std::int64_t load_cap = CeilCap(adj.nnz(), s, options.balance_slack);
  std::vector<std::int64_t> count(s, 0);
  std::vector<std::int64_t> load(s, 0);

  // --- Size-capped label-propagation clustering. -------------------------
  // Seeding assigns whole communities, not individual nodes. Per-node
  // greedy rules (hash scatter, streaming LDG) fragment each community
  // across several shards, and the strict-improvement refiner below
  // cannot merge fragments — every node inside a fragment already sits
  // with the plurality of its neighbors, so the partition is locally
  // stable at a cut far above what the graph admits. Instead: recover
  // clusters first with asynchronous label propagation (each node
  // adopts the plurality label of its neighbors, ties toward the
  // smaller label), unconstrained by shard geometry except for a
  // cluster-size cap of n/s that stops runaway label merging, so every
  // cluster later fits inside one shard without being split.
  std::vector<std::int64_t> label(n);
  {
    std::iota(label.begin(), label.end(), std::int64_t{0});
    std::vector<std::int64_t> lsize(n, 1);
    const std::int64_t cluster_cap = std::max<std::int64_t>(1, n / s);
    std::vector<std::int32_t> cols;
    std::vector<std::pair<std::int64_t, std::int32_t>> cnt;
    for (int pass = 0; pass < options.cluster_passes; ++pass) {
      std::int64_t changed = 0;
      for (std::int64_t rb = 0; rb < n; rb += kSweepRows) {
        const std::int64_t re = std::min(n, rb + kSweepRows);
        const bool ok = adj.ReadCols(rb, re, &cols);
        E2GCL_CHECK_MSG(ok, "adjacency sweep read failed");
        for (std::int64_t v = rb; v < re; ++v) {
          const std::int64_t eb = rp[v] - rp[rb];
          const std::int64_t ee = rp[v + 1] - rp[rb];
          if (ee == eb) continue;
          cnt.clear();
          for (std::int64_t e = eb; e < ee; ++e) {
            const std::int64_t lu = label[cols[e]];
            bool found = false;
            for (auto& kv : cnt) {
              if (kv.first == lu) {
                kv.second += 1;
                found = true;
                break;
              }
            }
            if (!found) cnt.push_back({lu, 1});
          }
          std::int64_t best = label[v];
          std::int32_t best_c = 0;
          for (const auto& kv : cnt) {
            if (kv.first != label[v] && lsize[kv.first] >= cluster_cap) {
              continue;
            }
            if (kv.second > best_c ||
                (kv.second == best_c && kv.first < best)) {
              best = kv.first;
              best_c = kv.second;
            }
          }
          if (best != label[v]) {
            lsize[label[v]] -= 1;
            lsize[best] += 1;
            label[v] = best;
            ++changed;
          }
        }
      }
      if (changed == 0) break;
    }
  }

  // --- Cluster packing. --------------------------------------------------
  // Whole clusters go to shards: largest first (ties toward the smaller
  // label) onto the currently emptiest shard (ties toward the smaller
  // shard id). Because clustering capped every cluster at n/s, no
  // cluster has to straddle shards by construction; the per-node spill
  // below only fires when packing overshoots the slack cap.
  {
    std::vector<std::int64_t> csize(n, 0);
    for (std::int64_t v = 0; v < n; ++v) csize[label[v]] += 1;
    std::vector<std::int64_t> clusters;
    for (std::int64_t l = 0; l < n; ++l) {
      if (csize[l] > 0) clusters.push_back(l);
    }
    std::sort(clusters.begin(), clusters.end(),
              [&](std::int64_t a, std::int64_t b) {
                return csize[a] != csize[b] ? csize[a] > csize[b] : a < b;
              });
    std::vector<std::int64_t> packed(s, 0);
    std::vector<std::int32_t> shard_of_label(n, 0);
    for (std::int64_t l : clusters) {
      std::int32_t best = 0;
      for (std::int32_t t = 1; t < s; ++t) {
        if (packed[t] < packed[best]) best = t;
      }
      shard_of_label[l] = best;
      packed[best] += csize[l];
    }
    for (std::int64_t v = 0; v < n; ++v) {
      std::int32_t t = shard_of_label[label[v]];
      while (count[t] >= count_cap) t = (t + 1) % s;
      p.shard_of[v] = t;
      count[t] += 1;
      load[t] += rp[v + 1] - rp[v];
    }
  }

  // --- Degree-aware balance pass. ----------------------------------------
  // Descending degree (ties: ascending id) so the heavy nodes settle
  // first; a node on an over-cap shard moves to the least-loaded shard
  // (ties: fewest nodes, then lowest id) that has node headroom.
  std::vector<std::int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return adj.Degree(a) > adj.Degree(b);
                   });
  for (std::int64_t v : order) {
    const std::int32_t cur = p.shard_of[v];
    if (count[cur] <= count_cap && load[cur] <= load_cap) continue;
    std::int32_t best = cur;
    for (std::int32_t t = 0; t < s; ++t) {
      if (t == cur || count[t] >= count_cap) continue;
      if (best == cur || load[t] < load[best] ||
          (load[t] == load[best] && count[t] < count[best])) {
        best = t;
      }
    }
    if (best == cur) continue;
    const std::int64_t deg = adj.Degree(v);
    count[cur] -= 1;
    load[cur] -= deg;
    count[best] += 1;
    load[best] += deg;
    p.shard_of[v] = best;
  }

  // --- Greedy edge-cut refinement. ---------------------------------------
  // Sequential label propagation in ascending node order, adjacency
  // streamed in fixed row ranges. A move happens only when the target
  // shard holds strictly more neighbors (strict cut reduction, so the
  // passes cannot oscillate) and the caps stay respected.
  std::vector<std::int32_t> cols;
  std::vector<std::int64_t> nbr_count(s, 0);
  for (int pass = 0; pass < options.refine_passes; ++pass) {
    for (std::int64_t rb = 0; rb < n; rb += kSweepRows) {
      const std::int64_t re = std::min(n, rb + kSweepRows);
      const bool ok = adj.ReadCols(rb, re, &cols);
      E2GCL_CHECK_MSG(ok, "adjacency sweep read failed");
      for (std::int64_t v = rb; v < re; ++v) {
        const std::int64_t eb = rp[v] - rp[rb];
        const std::int64_t ee = rp[v + 1] - rp[rb];
        if (ee == eb) continue;
        std::fill(nbr_count.begin(), nbr_count.end(), 0);
        for (std::int64_t e = eb; e < ee; ++e) {
          nbr_count[p.shard_of[cols[e]]] += 1;
        }
        const std::int32_t cur = p.shard_of[v];
        std::int32_t best = cur;
        for (std::int32_t t = 0; t < s; ++t) {
          if (nbr_count[t] > nbr_count[best]) best = t;
        }
        if (best == cur || nbr_count[best] <= nbr_count[cur]) continue;
        if (count[best] >= count_cap || count[cur] <= 1) continue;
        const std::int64_t deg = ee - eb;
        if (load[best] + deg > load_cap) continue;
        count[cur] -= 1;
        load[cur] -= deg;
        count[best] += 1;
        load[best] += deg;
        p.shard_of[v] = best;
      }
    }
  }

  // --- Cut accounting. ---------------------------------------------------
  std::int64_t cut = 0;
  for (std::int64_t rb = 0; rb < n; rb += kSweepRows) {
    const std::int64_t re = std::min(n, rb + kSweepRows);
    const bool ok = adj.ReadCols(rb, re, &cols);
    E2GCL_CHECK_MSG(ok, "adjacency sweep read failed");
    for (std::int64_t v = rb; v < re; ++v) {
      for (std::int64_t e = rp[v] - rp[rb]; e < rp[v + 1] - rp[rb]; ++e) {
        const std::int32_t u = cols[e];
        if (u > v && p.shard_of[u] != p.shard_of[v]) ++cut;
      }
    }
  }
  p.cut_edges = cut;
  BuildShardNodes(&p);
  return p;
}

}  // namespace e2gcl
