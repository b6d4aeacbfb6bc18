#include "shard/graph_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "io/serialize.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

constexpr std::uint32_t kGraphStoreMagic = 0x47535452;  // "GSTR"
constexpr std::uint32_t kGraphStoreVersion = 1;

std::string JoinPath(const std::string& dir, const char* file) {
  if (dir.empty() || dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

/// Size of `path` in bytes, or -1 when it does not exist / is unreadable.
std::int64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return -1;
  return static_cast<std::int64_t>(size);
}

/// Reads `bytes` bytes starting at `offset` from `path` into `out`.
bool ReadAt(const std::string& path, std::int64_t offset, std::int64_t bytes,
            void* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  in.seekg(offset);
  in.read(static_cast<char*>(out), bytes);
  return in.good() || (bytes == 0);
}

}  // namespace

bool AdjacencySource::GatherAdjacency(
    const std::vector<std::int64_t>& rows, std::vector<std::int32_t>* out_cols,
    std::vector<std::int64_t>* out_offsets) const {
  const std::int64_t m = static_cast<std::int64_t>(rows.size());
  const std::vector<std::int64_t>& rp = row_ptr();
  out_offsets->assign(1, 0);
  out_offsets->reserve(m + 1);
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    total += rp[rows[i] + 1] - rp[rows[i]];
    out_offsets->push_back(total);
  }
  out_cols->clear();
  out_cols->reserve(total);
  std::vector<std::int32_t> run;
  std::int64_t i = 0;
  while (i < m) {
    std::int64_t j = i + 1;
    while (j < m && rows[j] == rows[j - 1] + 1) ++j;
    if (!ReadCols(rows[i], rows[j - 1] + 1, &run)) return false;
    out_cols->insert(out_cols->end(), run.begin(), run.end());
    i = j;
  }
  return true;
}

bool GraphAdjacency::ReadCols(std::int64_t rb, std::int64_t re,
                              std::vector<std::int32_t>* out) const {
  out->assign(g_->col.begin() + g_->row_ptr[rb],
              g_->col.begin() + g_->row_ptr[re]);
  return true;
}

bool GraphStore::Write(const std::string& dir, const Graph& g) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  const std::int64_t n = g.num_nodes;
  const std::int64_t nnz = static_cast<std::int64_t>(g.col.size());
  const std::int64_t d = g.features.empty() ? 0 : g.features.cols();

  // Bin files first, meta last: a store whose meta is present is complete.
  const std::string rowptr(
      reinterpret_cast<const char*>(g.row_ptr.data()),
      static_cast<std::size_t>(n + 1) * sizeof(std::int64_t));
  if (!WriteFileAtomic(JoinPath(dir, "rowptr.bin"), rowptr)) return false;
  const std::string col(reinterpret_cast<const char*>(g.col.data()),
                        static_cast<std::size_t>(nnz) * sizeof(std::int32_t));
  if (!WriteFileAtomic(JoinPath(dir, "col.bin"), col)) return false;
  if (d > 0) {
    const std::string feat(
        reinterpret_cast<const char*>(g.features.data()),
        static_cast<std::size_t>(n) * static_cast<std::size_t>(d) *
            sizeof(float));
    if (!WriteFileAtomic(JoinPath(dir, "feat.bin"), feat)) return false;
  }
  const bool has_labels = !g.labels.empty();
  if (has_labels) {
    const std::string labels(
        reinterpret_cast<const char*>(g.labels.data()),
        static_cast<std::size_t>(n) * sizeof(std::int64_t));
    if (!WriteFileAtomic(JoinPath(dir, "labels.bin"), labels)) return false;
  }

  ByteWriter meta;
  meta.WriteI64(n);
  meta.WriteI64(d);
  meta.WriteI64(g.num_classes);
  meta.WriteI64(nnz);
  meta.WriteU32(has_labels ? 1 : 0);
  return WriteStateFile(JoinPath(dir, "meta.e2gcl"), kGraphStoreMagic,
                        kGraphStoreVersion, {{"meta", meta.bytes()}});
}

bool GraphStore::Open(const std::string& dir) {
  dir_ = dir;
  num_nodes_ = 0;
  row_ptr_.clear();

  std::vector<StateSection> sections;
  if (!ReadStateFile(JoinPath(dir, "meta.e2gcl"), kGraphStoreMagic,
                     kGraphStoreVersion, &sections)) {
    return false;
  }
  const StateSection* meta = FindSection(sections, "meta");
  if (meta == nullptr) return false;
  ByteReader r(meta->payload);
  const std::int64_t n = r.ReadI64();
  const std::int64_t d = r.ReadI64();
  const std::int64_t num_classes = r.ReadI64();
  const std::int64_t nnz = r.ReadI64();
  const bool has_labels = r.ReadU32() != 0;
  if (!r.AtEnd() || n < 0 || d < 0 || nnz < 0) return false;

  // Validate every bin file's size against the declared counts before
  // trusting any offset computed from them.
  if (FileSizeBytes(JoinPath(dir, "rowptr.bin")) !=
      (n + 1) * static_cast<std::int64_t>(sizeof(std::int64_t))) {
    return false;
  }
  if (FileSizeBytes(JoinPath(dir, "col.bin")) !=
      nnz * static_cast<std::int64_t>(sizeof(std::int32_t))) {
    return false;
  }
  if (d > 0 && FileSizeBytes(JoinPath(dir, "feat.bin")) !=
                   n * d * static_cast<std::int64_t>(sizeof(float))) {
    return false;
  }
  if (has_labels &&
      FileSizeBytes(JoinPath(dir, "labels.bin")) !=
          n * static_cast<std::int64_t>(sizeof(std::int64_t))) {
    return false;
  }

  row_ptr_.resize(n + 1);
  if (!ReadAt(JoinPath(dir, "rowptr.bin"), 0,
              (n + 1) * static_cast<std::int64_t>(sizeof(std::int64_t)),
              row_ptr_.data())) {
    row_ptr_.clear();
    return false;
  }
  if (row_ptr_[0] != 0 || row_ptr_[n] != nnz) return false;
  for (std::int64_t v = 0; v < n; ++v) {
    if (row_ptr_[v + 1] < row_ptr_[v]) return false;
  }

  num_nodes_ = n;
  feature_dim_ = d;
  num_classes_ = num_classes;
  has_labels_ = has_labels;
  return true;
}

bool GraphStore::ReadCols(std::int64_t rb, std::int64_t re,
                          std::vector<std::int32_t>* out) const {
  E2GCL_CHECK(rb >= 0 && rb <= re && re <= num_nodes_);
  const std::int64_t begin = row_ptr_[rb];
  const std::int64_t count = row_ptr_[re] - begin;
  out->resize(count);
  return ReadAt(JoinPath(dir_, "col.bin"),
                begin * static_cast<std::int64_t>(sizeof(std::int32_t)),
                count * static_cast<std::int64_t>(sizeof(std::int32_t)),
                out->data());
}

bool GraphStore::GatherAdjacency(const std::vector<std::int64_t>& rows,
                                 std::vector<std::int32_t>* out_cols,
                                 std::vector<std::int64_t>* out_offsets) const {
  const std::int64_t m = static_cast<std::int64_t>(rows.size());
  out_offsets->assign(1, 0);
  out_offsets->reserve(m + 1);
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    E2GCL_CHECK(rows[i] >= 0 && rows[i] < num_nodes_);
    total += row_ptr_[rows[i] + 1] - row_ptr_[rows[i]];
    out_offsets->push_back(total);
  }
  out_cols->resize(total);
  // One stream for the whole gather; consecutive-row runs coalesce into
  // single reads, so a shard's (mostly contiguous) rows cost few seeks.
  std::ifstream in(JoinPath(dir_, "col.bin"), std::ios::binary);
  if (!in.is_open()) return m == 0;
  std::int64_t write_at = 0;
  std::int64_t i = 0;
  while (i < m) {
    std::int64_t j = i + 1;
    while (j < m && rows[j] == rows[j - 1] + 1) ++j;
    const std::int64_t begin = row_ptr_[rows[i]];
    const std::int64_t count = row_ptr_[rows[j - 1] + 1] - begin;
    if (count > 0) {
      in.seekg(begin * static_cast<std::int64_t>(sizeof(std::int32_t)));
      in.read(reinterpret_cast<char*>(out_cols->data() + write_at),
              count * static_cast<std::int64_t>(sizeof(std::int32_t)));
      if (!in.good()) return false;
      write_at += count;
    }
    i = j;
  }
  return true;
}

bool GraphStore::ReadFeatureRows(const std::vector<std::int64_t>& nodes,
                                 Matrix* out) const {
  const std::int64_t m = static_cast<std::int64_t>(nodes.size());
  if (feature_dim_ == 0) {
    *out = Matrix();
    return true;
  }
  *out = Matrix(m, feature_dim_);
  const std::int64_t row_bytes =
      feature_dim_ * static_cast<std::int64_t>(sizeof(float));
  std::ifstream in(JoinPath(dir_, "feat.bin"), std::ios::binary);
  if (!in.is_open()) return m == 0;
  std::int64_t i = 0;
  while (i < m) {
    E2GCL_CHECK(nodes[i] >= 0 && nodes[i] < num_nodes_);
    std::int64_t j = i + 1;
    while (j < m && nodes[j] == nodes[j - 1] + 1) ++j;
    in.seekg(nodes[i] * row_bytes);
    in.read(reinterpret_cast<char*>(out->RowPtr(i)), (j - i) * row_bytes);
    if (!in.good()) return false;
    i = j;
  }
  return true;
}

bool GraphStore::ReadLabels(const std::vector<std::int64_t>& nodes,
                            std::vector<std::int64_t>* out) const {
  out->clear();
  if (!has_labels_) return true;
  const std::int64_t m = static_cast<std::int64_t>(nodes.size());
  out->resize(m);
  std::ifstream in(JoinPath(dir_, "labels.bin"), std::ios::binary);
  if (!in.is_open()) return m == 0;
  std::int64_t i = 0;
  while (i < m) {
    E2GCL_CHECK(nodes[i] >= 0 && nodes[i] < num_nodes_);
    std::int64_t j = i + 1;
    while (j < m && nodes[j] == nodes[j - 1] + 1) ++j;
    in.seekg(nodes[i] * static_cast<std::int64_t>(sizeof(std::int64_t)));
    in.read(reinterpret_cast<char*>(out->data() + i),
            (j - i) * static_cast<std::int64_t>(sizeof(std::int64_t)));
    if (!in.good()) return false;
    i = j;
  }
  return true;
}

bool GraphStore::LoadInducedSubgraph(const std::vector<std::int64_t>& nodes,
                                     Graph* out) const {
  const std::int64_t m = static_cast<std::int64_t>(nodes.size());
  for (std::int64_t i = 1; i < m; ++i) {
    E2GCL_CHECK_MSG(nodes[i] > nodes[i - 1], "nodes must be sorted unique");
  }
  std::vector<std::int32_t> cols;
  std::vector<std::int64_t> offsets;
  if (!GatherAdjacency(nodes, &cols, &offsets)) return false;

  // Keep edges whose endpoints are both in `nodes`; a node -> local id
  // table (-1 outside the ball, freed before the features are read)
  // gives the local id in one read (same membership rule as
  // InducedSubgraph, so the resulting CSR is bit-identical to the
  // resident-path one).
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  {
    std::vector<std::int32_t> local(static_cast<std::size_t>(num_nodes_), -1);
    for (std::int64_t i = 0; i < m; ++i) {
      local[static_cast<std::size_t>(nodes[i])] = static_cast<std::int32_t>(i);
    }
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        const std::int32_t u = cols[e];
        if (u < 0 || u >= num_nodes_) continue;  // in no ball
        const std::int64_t j = local[static_cast<std::size_t>(u)];
        if (j > i) edges.emplace_back(i, j);
      }
    }
  }
  Matrix feats;
  if (!ReadFeatureRows(nodes, &feats)) return false;
  std::vector<std::int64_t> labels;
  if (!ReadLabels(nodes, &labels)) return false;
  *out = BuildGraph(m, edges, std::move(feats), std::move(labels),
                    num_classes_);
  return true;
}

}  // namespace e2gcl
