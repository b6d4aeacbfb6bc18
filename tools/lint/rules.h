#ifndef E2GCL_TOOLS_LINT_RULES_H_
#define E2GCL_TOOLS_LINT_RULES_H_

#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace e2gcl {
namespace lint {

/// Runs every registered rule over one lexed file, appending raw
/// (pre-suppression) findings to `out`. `path` is repo-relative and
/// drives per-rule scoping.
void RunAllRules(const std::string& path, const LexedFile& lexed,
                 std::vector<Finding>* out);

}  // namespace lint
}  // namespace e2gcl

#endif  // E2GCL_TOOLS_LINT_RULES_H_
