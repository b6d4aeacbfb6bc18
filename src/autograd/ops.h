#ifndef E2GCL_AUTOGRAD_OPS_H_
#define E2GCL_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "tensor/csr.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace ag {

/// Differentiable ops. Each returns a fresh tape node; gradients flow to
/// any parent with requires_grad set. Naming mirrors tensor/matrix.h.

/// C = A * B.
Var MatMul(const Var& a, const Var& b);

/// C = A * B^T.
Var MatMulTransposedB(const Var& a, const Var& b);

/// C = S * X where S is a constant sparse matrix (no gradient flows to
/// S; this is the GCN propagation step). The caller keeps `s` alive via
/// the shared_ptr.
Var Spmm(std::shared_ptr<const CsrMatrix> s, const Var& x);

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Hadamard(const Var& a, const Var& b);

/// alpha * A for a compile-time-known scalar.
Var Scale(const Var& a, float alpha);

/// Adds a 1 x C bias row to every row of A (broadcast).
Var AddRowBroadcast(const Var& a, const Var& bias);

Var Relu(const Var& a);

/// PReLU with a scalar (1x1) learnable slope for the negative part, as
/// used by DGI's encoder.
Var PRelu(const Var& a, const Var& slope);

Var Sigmoid(const Var& a);
Var Exp(const Var& a);

/// Natural log; inputs must be positive.
Var Log(const Var& a);

/// Rows rescaled to unit L2 norm (zero rows pass through).
Var NormalizeRowsL2(const Var& a, float eps = 1e-12f);

Var Transpose(const Var& a);

/// Scalar (1x1) sum / mean over all entries.
Var SumAll(const Var& a);
Var MeanAll(const Var& a);

/// 1 x C mean over rows.
Var MeanRows(const Var& a);

/// Gathers rows (backward scatter-adds into the source).
Var GatherRows(const Var& a, std::vector<std::int64_t> indices);

/// Inverted dropout: zeroes entries with probability p and scales the
/// rest by 1/(1-p). Identity when `training` is false or p <= 0.
Var Dropout(const Var& a, float p, Rng& rng, bool training);

/// Batch normalization over columns with batch statistics:
/// y = gamma * (x - mean_col) / sqrt(var_col + eps) + beta.
/// gamma/beta are 1 x C. Uses the current batch's statistics (the only
/// mode the library needs: BN appears in training-only heads such as
/// BGRL's predictor).
Var BatchNormColumns(const Var& x, const Var& gamma, const Var& beta,
                     float eps = 1e-5f);

}  // namespace ag
}  // namespace e2gcl

#endif  // E2GCL_AUTOGRAD_OPS_H_
