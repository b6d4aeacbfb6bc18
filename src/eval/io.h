#ifndef E2GCL_EVAL_IO_H_
#define E2GCL_EVAL_IO_H_

#include <string>

#include "tensor/matrix.h"

namespace e2gcl {

/// Writes a matrix as comma-separated rows (default stream formatting:
/// six significant digits), so embeddings can be read by external
/// analysis (plotting, downstream models). Written atomically; returns
/// false on I/O failure (no exceptions).
bool SaveMatrixCsv(const Matrix& m, const std::string& path);

}  // namespace e2gcl

#endif  // E2GCL_EVAL_IO_H_
