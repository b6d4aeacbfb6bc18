#ifndef E2GCL_TOOLS_FLAG_PARSE_H_
#define E2GCL_TOOLS_FLAG_PARSE_H_

// Strict whole-token parsers for command-line flag values, shared by the
// e2gcl_cli and e2gcl_serve tools: "", "12x", and out-of-range values
// fail rather than parse a prefix.

#include <cerrno>
#include <cstdint>
#include <cstdlib>

/// Integer in [lo, hi].
inline bool ParseInt(const char* s, long long lo, long long hi,
                     long long* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

inline bool ParseU64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

inline bool ParseDouble(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

#endif  // E2GCL_TOOLS_FLAG_PARSE_H_
