#include "eval/io.h"

#include <sstream>

#include "io/serialize.h"

namespace e2gcl {

bool SaveMatrixCsv(const Matrix& m, const std::string& path) {
  // Rendered in memory, then written atomically (tmp + fsync + rename)
  // so a crash mid-save never leaves a torn CSV.
  std::ostringstream out;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    const float* row = m.RowPtr(r);
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      if (c > 0) out << ',';
      out << row[c];
    }
    out << '\n';
  }
  return WriteFileAtomic(path, out.str());
}

}  // namespace e2gcl
