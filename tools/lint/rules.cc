#include "tools/lint/rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace e2gcl {
namespace lint {

namespace {

// ---------------------------------------------------------------------
// Shared helpers.

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool InLibrary(const std::string& path) { return StartsWith(path, "src/"); }

bool IsHeader(const std::string& path) { return EndsWith(path, ".h"); }

void Add(std::vector<Finding>* out, const std::string& rule, Severity sev,
         const std::string& path, int line, std::string message) {
  Finding f;
  f.rule = rule;
  f.severity = sev;
  f.file = path;
  f.line = line;
  f.message = std::move(message);
  out->push_back(std::move(f));
}

/// Joins per-line views back into one string (offsets -> line numbers
/// via LineStarts/LineOf) for rules that need multi-line extents.
std::string Join(const std::vector<std::string>& lines) {
  std::ostringstream ss;
  for (const std::string& l : lines) ss << l << '\n';
  return ss.str();
}

std::vector<std::size_t> LineStarts(const std::string& joined) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < joined.size(); ++i) {
    if (joined[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

int LineOf(const std::vector<std::size_t>& starts, std::size_t offset) {
  auto it = std::upper_bound(starts.begin(), starts.end(), offset);
  return static_cast<int>(it - starts.begin());  // 1-based
}

/// Offset one past the matching ')' for the '(' at `open`, or npos when
/// unbalanced.
std::size_t BalancedParenEnd(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Finds whole-word occurrences of `word` in `line`, returning their
/// start offsets.
std::vector<std::size_t> FindWord(const std::string& line,
                                  const std::string& word) {
  std::vector<std::size_t> hits;
  std::size_t pos = line.find(word);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = line.find(word, pos + 1);
  }
  return hits;
}

char PrevNonSpace(const std::string& line, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (line[pos] != ' ' && line[pos] != '\t') return line[pos];
  }
  return '\0';
}

// ---------------------------------------------------------------------
// Rule: unordered-iteration
//
// Hash-container iteration order depends on the implementation's hash
// seed, bucket count, and insertion history; feeding it into a
// float accumulation or an ordered output silently breaks the
// bit-identical-results contract (DESIGN.md "Threading model"). The
// rule flags every range-for over — and every .begin() drain of — a
// std::unordered_{map,set} declared in the same file. Order-safe
// drains (sorted immediately after) carry a justified suppression.

void RuleUnorderedIteration(const std::string& path, const LexedFile& lexed,
                            std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{]*>\s+(\w+))");
  static const std::regex kRangeFor(R"(for\s*\([^;)]*?:\s*(\w+)\s*\))");
  std::set<std::string> unordered_vars;
  for (const std::string& line : lexed.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      unordered_vars.insert((*it)[1].str());
    }
  }
  if (unordered_vars.empty()) return;
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    const std::string& line = lexed.code[i];
    for (std::sregex_iterator it(line.begin(), line.end(), kRangeFor), end;
         it != end; ++it) {
      const std::string var = (*it)[1].str();
      if (unordered_vars.count(var) != 0) {
        Add(out, "unordered-iteration", Severity::kError, path,
            static_cast<int>(i + 1),
            "range-for over std::unordered container '" + var +
                "' is hash-order-dependent; iterate a sorted drain instead");
      }
    }
    const std::size_t dot = line.find(".begin()");
    if (dot != std::string::npos && dot > 0) {
      std::size_t b = dot;
      while (b > 0 && IsWordChar(line[b - 1])) --b;
      const std::string var = line.substr(b, dot - b);
      if (unordered_vars.count(var) != 0) {
        Add(out, "unordered-iteration", Severity::kError, path,
            static_cast<int>(i + 1),
            "draining std::unordered container '" + var +
                "' via .begin() yields hash order; sort the result or "
                "justify why order does not matter");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: banned-random
//
// All randomness must flow through tensor/rng (seeded SplitMix64/
// xoshiro) so runs are reproducible from a single seed. libc rand/
// srand, wall-clock seeding, and std::random_device are all
// nondeterministic across runs or platforms.

void RuleBannedRandom(const std::string& path, const LexedFile& lexed,
                      std::vector<Finding>* out) {
  if (StartsWith(path, "src/tensor/rng")) return;  // the one sanctioned home
  static const std::regex kBanned(
      R"((^|[^\w.])((?:std::)?(?:rand|srand|time))\s*\(|(random_device))");
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    const std::string& line = lexed.code[i];
    std::smatch m;
    if (std::regex_search(line, m, kBanned)) {
      const std::string api = m[2].matched ? m[2].str() : m[3].str();
      Add(out, "banned-random", Severity::kError, path,
          static_cast<int>(i + 1),
          "nondeterminism API '" + api +
              "' is banned; use tensor/rng so runs replay from one seed");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: atomic-float
//
// Atomic float/double accumulation commits results in scheduling
// order, which breaks bit-identical reductions at different thread
// counts; reductions must use chunk-ordered partials instead.

void RuleAtomicFloat(const std::string& path, const LexedFile& lexed,
                     std::vector<Finding>* out) {
  static const std::regex kAtomic(R"(atomic\s*<\s*(float|double)\s*>)");
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    std::smatch m;
    const std::string& line = lexed.code[i];
    if (std::regex_search(line, m, kAtomic)) {
      Add(out, "atomic-float", Severity::kError, path,
          static_cast<int>(i + 1),
          "std::atomic<" + m[1].str() +
              "> commits in scheduling order; reduce via chunk-ordered "
              "partials (see parallel/parallel_for.h)");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: raw-file-write
//
// Library writes must be atomic (tmp + fsync + rename) so a crash
// never leaves a torn file; WriteFileAtomic / WriteStateFile /
// WriteJsonFile are the only sanctioned sinks. Flags std::ofstream and
// write-mode fopen in src/ (reads are fine).

void RuleRawFileWrite(const std::string& path, const LexedFile& lexed,
                      std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  static const std::regex kFopenWrite(R"(fopen\s*\([^;]*"[wa][^"]*")");
  for (std::size_t i = 0; i < lexed.code_with_strings.size(); ++i) {
    const std::string& line = lexed.code_with_strings[i];
    if (!FindWord(line, "ofstream").empty()) {
      Add(out, "raw-file-write", Severity::kError, path,
          static_cast<int>(i + 1),
          "std::ofstream bypasses atomic-write discipline; route writes "
          "through WriteFileAtomic (io/serialize.h)");
    }
    if (std::regex_search(line, kFopenWrite)) {
      Add(out, "raw-file-write", Severity::kError, path,
          static_cast<int>(i + 1),
          "write-mode fopen bypasses atomic-write discipline; route "
          "writes through WriteFileAtomic (io/serialize.h)");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: naked-new-delete
//
// Library code owns memory via containers and smart pointers; a naked
// new/delete is either a leak, a double-free waiting to happen, or an
// intentionally leaked process-lifetime singleton — the latter gets a
// justified suppression so the intent is recorded.

void RuleNakedNewDelete(const std::string& path, const LexedFile& lexed,
                        std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    const std::string& line = lexed.code[i];
    for (std::size_t pos : FindWord(line, "new")) {
      // `= delete`-style defaulted declarations don't apply to new;
      // skip `operator new` and placement forms conservatively.
      std::size_t after = pos + 3;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after >= line.size() || !(IsWordChar(line[after]))) continue;
      Add(out, "naked-new-delete", Severity::kError, path,
          static_cast<int>(i + 1),
          "naked 'new' in library code; use containers/smart pointers "
          "or justify an intentional process-lifetime leak");
    }
    for (std::size_t pos : FindWord(line, "delete")) {
      if (PrevNonSpace(line, pos) == '=') continue;  // = delete;
      Add(out, "naked-new-delete", Severity::kError, path,
          static_cast<int>(i + 1),
          "naked 'delete' in library code; prefer owning containers or "
          "smart pointers");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: stdout-in-library
//
// The library reports through return values, TrainResult events, and
// obs metrics; stdout belongs to the CLIs. (fprintf(stderr, ...) for
// non-fatal warnings and snprintf formatting are allowed.)

void RuleStdoutInLibrary(const std::string& path, const LexedFile& lexed,
                         std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  static const std::regex kStdout(R"(fprintf\s*\(\s*stdout|\bputs\s*\()");
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    const std::string& line = lexed.code[i];
    const bool hit = !FindWord(line, "cout").empty() ||
                     !FindWord(line, "printf").empty() ||
                     std::regex_search(line, kStdout);
    if (hit) {
      Add(out, "stdout-in-library", Severity::kError, path,
          static_cast<int>(i + 1),
          "library code must not write to stdout; report via return "
          "values, events, or obs metrics");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: parallel-reduction
//
// A `acc += ...` on a variable captured from outside a ParallelFor
// body is a cross-chunk data race and, even if atomic, commits in
// scheduling order. Reductions must write per-chunk partials
// (ParallelForChunks + chunk-indexed slots) and reduce in chunk order
// on the calling thread. Heuristic: compound assignment to a plain
// identifier not declared inside the parallel body.

void RuleParallelReduction(const std::string& path, const LexedFile& lexed,
                           std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  const std::string joined = Join(lexed.code);
  const std::vector<std::size_t> starts = LineStarts(joined);
  static const std::regex kCall(R"(ParallelFor(?:Chunks)?\s*\()");
  static const std::regex kCompound(R"((^|[^\w.\]>)])(\w+)\s*([-+*])=[^=])");
  for (std::sregex_iterator it(joined.begin(), joined.end(), kCall), end;
       it != end; ++it) {
    const std::size_t open = it->position() + it->length() - 1;
    const std::size_t close = BalancedParenEnd(joined, open);
    if (close == std::string::npos) continue;
    const std::string body = joined.substr(open, close - open);
    for (std::sregex_iterator bit(body.begin(), body.end(), kCompound), bend;
         bit != bend; ++bit) {
      const std::string var = (*bit)[2].str();
      // Locally-declared accumulators (per-row/per-chunk scalars) are
      // fine; look for a type-ish token immediately before `var` within
      // the body.
      const std::regex decl("(float|double|auto|int|long|std::\\w+)[&\\s]+" +
                            var + "\\b");
      if (std::regex_search(body, decl)) continue;
      Add(out, "parallel-reduction", Severity::kWarning, path,
          LineOf(starts, open + static_cast<std::size_t>(bit->position(2))),
          "compound assignment to captured '" + var +
              "' inside a parallel body; use chunk-indexed partials "
              "reduced in chunk order");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: include-guard
//
// Every header needs #pragma once or a matched #ifndef/#define guard;
// a missing or mismatched guard breaks one-definition hygiene
// silently.

void RuleIncludeGuard(const std::string& path, const LexedFile& lexed,
                      std::vector<Finding>* out) {
  if (!IsHeader(path)) return;
  const std::string joined = Join(lexed.code);
  if (joined.find("#pragma once") != std::string::npos) return;
  static const std::regex kIfndef(R"(#ifndef\s+(\w+))");
  static const std::regex kDefine(R"(#define\s+(\w+))");
  std::smatch mi, md;
  const bool has_ifndef = std::regex_search(joined, mi, kIfndef);
  const bool has_define = std::regex_search(joined, md, kDefine);
  if (!has_ifndef || !has_define) {
    Add(out, "include-guard", Severity::kError, path, 1,
        "header lacks an include guard (#pragma once or "
        "#ifndef/#define pair)");
    return;
  }
  if (mi[1].str() != md[1].str()) {
    const std::vector<std::size_t> starts = LineStarts(joined);
    Add(out, "include-guard", Severity::kError, path,
        LineOf(starts, static_cast<std::size_t>(md.position(0))),
        "include guard mismatch: #ifndef " + mi[1].str() +
            " vs #define " + md[1].str());
    return;
  }
  if (joined.find("#endif") == std::string::npos) {
    Add(out, "include-guard", Severity::kError, path, 1,
        "include guard is never closed with #endif");
  }
}

// ---------------------------------------------------------------------
// Rule: float-index-cast
//
// Truncating a float-valued expression straight into an index or count
// hides the rounding decision (and on ties makes it platform-
// dependent). Rounding must be explicit: std::llround, std::floor,
// std::ceil, or std::trunc before the cast.

bool IsIndexType(const std::string& t) {
  static const std::set<std::string> kTypes = {
      "int",           "long",          "unsigned",      "size_t",
      "std::size_t",   "ptrdiff_t",     "std::ptrdiff_t", "int32_t",
      "int64_t",       "uint32_t",      "uint64_t",      "std::int32_t",
      "std::int64_t",  "std::uint32_t", "std::uint64_t"};
  return kTypes.count(t) != 0;
}

void RuleFloatIndexCast(const std::string& path, const LexedFile& lexed,
                        std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  const std::string joined = Join(lexed.code);
  const std::vector<std::size_t> starts = LineStarts(joined);
  static const std::regex kCast(R"(static_cast<\s*([\w:]+)\s*>\s*\()");
  static const std::regex kFloaty(
      R"(\b\d+\.\d*f?|\bfloat\b|\bdouble\b|\w*frac\w*|\w*prob\w*|\w*ratio\w*)");
  static const std::regex kRounded(R"(round|floor|ceil|trunc)");
  for (std::sregex_iterator it(joined.begin(), joined.end(), kCast), end;
       it != end; ++it) {
    if (!IsIndexType((*it)[1].str())) continue;
    const std::size_t open = it->position() + it->length() - 1;
    const std::size_t close = BalancedParenEnd(joined, open);
    if (close == std::string::npos) continue;
    std::string arg = joined.substr(open + 1, close - open - 2);
    // sizeof(float) et al. are byte counts, not float values.
    static const std::regex kSizeof(R"(sizeof\s*\([^)]*\))");
    arg = std::regex_replace(arg, kSizeof, "");
    if (std::regex_search(arg, kFloaty) && !std::regex_search(arg, kRounded)) {
      Add(out, "float-index-cast", Severity::kWarning, path,
          LineOf(starts, static_cast<std::size_t>(it->position())),
          "float-valued expression cast to " + (*it)[1].str() +
              " without explicit rounding; wrap in std::llround/"
              "std::floor (or justify)");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: raw-simd-intrinsic
//
// Vector intrinsics (and <immintrin.h>) are confined to the kernel
// layer src/tensor/simd/: everything else calls the dispatched simd::
// primitives, so the portable build is honest (no stray AVX2 in a
// "portable" binary) and the per-build-config determinism contract has
// a single audit surface. The suppression escape exists for a justified
// one-off (e.g. a prefetch hint), not for growing a second kernel layer.

void RuleRawSimdIntrinsic(const std::string& path, const LexedFile& lexed,
                          std::vector<Finding>* out) {
  if (StartsWith(path, "src/tensor/simd/")) return;
  static const std::regex kIntrinsic(
      R"((^|[^\w])(_mm\w*|__m(?:128|256|512)\w*)\b)");
  static const std::regex kInclude(
      R"(#include\s*[<"](?:x86intrin|immintrin|emmintrin|avxintrin|avx2intrin)\.h[>"])");
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lexed.code[i], m, kIntrinsic)) {
      Add(out, "raw-simd-intrinsic", Severity::kError, path,
          static_cast<int>(i + 1),
          "raw vector intrinsic '" + m[2].str() +
              "' outside src/tensor/simd/; call the dispatched simd:: "
              "kernels instead");
    }
    if (std::regex_search(lexed.code_with_strings[i], kInclude)) {
      Add(out, "raw-simd-intrinsic", Severity::kError, path,
          static_cast<int>(i + 1),
          "intrinsics header included outside src/tensor/simd/; include "
          "tensor/simd/simd.h and use the dispatched kernels");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: raw-socket-io
//
// Raw socket syscalls and the socket/poller headers are confined to
// src/net/ — the one place where wire-format validation, CRC checks,
// partial-read/-write handling, and MSG_NOSIGNAL discipline live. A
// ::send elsewhere in the library would bypass all of it. Follows the
// raw-file-write/stdout-in-library family: the rest of src/ talks to
// the network through net::NetServer/net::NetClient. Tools and tests
// are exempt (test fixtures forge hostile byte streams on purpose).

void RuleRawSocketIo(const std::string& path, const LexedFile& lexed,
                     std::vector<Finding>* out) {
  if (!InLibrary(path) || StartsWith(path, "src/net/")) return;
  // (?:^|[^\w:]) keeps qualified lookalikes like std::bind from matching:
  // only a global-scope :: call counts.
  static const std::regex kSyscall(
      R"((?:^|[^\w:])::(socket|accept|bind|listen|connect|send|sendto|recv|recvfrom|setsockopt|getsockname|getpeername)\s*\()");
  static const std::regex kHeader(
      R"(#include\s*[<"](?:sys/socket|sys/epoll|poll|netinet/in|netinet/tcp|arpa/inet|netdb)\.h[>"])");
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lexed.code[i], m, kSyscall)) {
      Add(out, "raw-socket-io", Severity::kError, path,
          static_cast<int>(i + 1),
          "raw socket call '::" + m[1].str() +
              "' outside src/net/; go through net::NetServer/"
              "net::NetClient so framing and error discipline apply");
    }
    if (std::regex_search(lexed.code_with_strings[i], kHeader)) {
      Add(out, "raw-socket-io", Severity::kError, path,
          static_cast<int>(i + 1),
          "socket/poller header included outside src/net/; the network "
          "surface lives in src/net/ only");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: test-include-in-library
//
// src/ must stay layerable: library translation units cannot reach
// into tests/ or tools/, and rooted includes keep the build graph
// acyclic.

void RuleTestIncludeInLibrary(const std::string& path, const LexedFile& lexed,
                              std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  static const std::regex kBadInclude(
      R"(#include\s*"(tests/|tools/|\.\./))");
  for (std::size_t i = 0; i < lexed.code_with_strings.size(); ++i) {
    std::smatch m;
    const std::string& line = lexed.code_with_strings[i];
    if (std::regex_search(line, m, kBadInclude)) {
      Add(out, "test-include-in-library", Severity::kError, path,
          static_cast<int>(i + 1),
          "library code must not include '" + m[1].str() +
              "' headers; dependencies flow src -> tools/tests only");
    }
  }
}

// ---------------------------------------------------------------------
// Concurrency-discipline rules: a per-translation-unit function index.
//
// The four rules below are flow-aware: they parse every function
// *definition* out of the lexed code view (name, parameter list, the
// qualifier/annotation region before '{', and the brace-balanced body),
// build a same-file name-based call graph, and track which e2gcl::Mutex
// capabilities are held at each point of a body (MutexLock scopes by
// brace depth, mid-scope .Unlock()/.Lock(), and E2GCL_REQUIRES
// annotations implying the capability for the whole body). Everything
// is per file by design — the same heuristic, suppressible contract as
// every other rule, not a whole-program analysis; clang's
// -Wthread-safety (E2GCL_THREAD_SAFETY=ON) is the semantic checker
// these rules complement.

/// Offset one past the matching '}' for the '{' at `open`, or npos.
std::size_t BalancedBraceEnd(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool IsControlKeyword(const std::string& w) {
  static const std::set<std::string> kKeywords = {
      "if",     "else",    "for",     "while",         "switch",
      "catch",  "return",  "sizeof",  "defined",       "alignof",
      "alignas", "decltype", "static_assert", "new",   "delete",
      "throw",  "do",      "case",    "assert"};
  return kKeywords.count(w) != 0;
}

/// True when the text between a parameter list's ')' and the body's '{'
/// contains only qualifiers (const/noexcept/override/final/try),
/// E2GCL_* annotations, or a constructor initializer list — i.e. the
/// paren/brace pair really is a function definition, not `while (...) {`
/// innards or an initialized variable.
bool IsQualifierRegion(std::string region) {
  // Accept everything from the first single ':' — a ctor-init list can
  // contain arbitrary expressions ('::' is not a list start).
  for (std::size_t i = 0; i < region.size(); ++i) {
    if (region[i] != ':') continue;
    const bool doubled = (i + 1 < region.size() && region[i + 1] == ':') ||
                         (i > 0 && region[i - 1] == ':');
    if (doubled) {
      ++i;  // skip the second ':'
      continue;
    }
    region.resize(i);
    break;
  }
  static const std::regex kAnnotation(R"(E2GCL_[A-Z_]+(\s*\([^()]*\))?)");
  region = std::regex_replace(region, kAnnotation, " ");
  static const std::regex kQualifier(
      R"(\b(const|noexcept|override|final|try|mutable)\b)");
  region = std::regex_replace(region, kQualifier, " ");
  return region.find_first_not_of(" \t\n") == std::string::npos;
}

struct FunctionDef {
  std::string name;    // last name component (method name for X::Y)
  std::string header;  // name through the char before '{' (quals incl.)
  std::string body;    // brace-balanced body, code view
  std::size_t body_begin = 0;  // offset of '{' in FunctionIndex::joined
  int line = 0;                // 1-based line of the name
};

struct FunctionIndex {
  std::string joined;                // Join(lexed.code)
  std::vector<std::size_t> starts;   // LineStarts(joined)
  std::vector<FunctionDef> defs;     // in file order
};

FunctionIndex BuildFunctionIndex(const LexedFile& lexed) {
  FunctionIndex idx;
  idx.joined = Join(lexed.code);
  idx.starts = LineStarts(idx.joined);
  const std::string& t = idx.joined;
  static const std::regex kName(R"(([A-Za-z_]\w*)\s*\()");
  for (std::sregex_iterator it(t.begin(), t.end(), kName), end; it != end;
       ++it) {
    const std::string name = (*it)[1].str();
    if (IsControlKeyword(name)) continue;
    // Annotation macros trailing a signature (E2GCL_REQUIRES(mu_) {...})
    // would otherwise index as a second definition of the same body.
    if (StartsWith(name, "E2GCL_")) continue;
    const std::size_t name_pos = static_cast<std::size_t>(it->position());
    // Never treat a preprocessor line (#if defined(...) etc.) as code.
    std::size_t line_start = t.rfind('\n', name_pos);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    const std::size_t first = t.find_first_not_of(" \t", line_start);
    if (first != std::string::npos && t[first] == '#') continue;
    const std::size_t open = name_pos + static_cast<std::size_t>(it->length()) - 1;
    const std::size_t close = BalancedParenEnd(t, open);
    if (close == std::string::npos) continue;
    // The body '{' must come before any ';' (a ';' means declaration,
    // statement, or expression — not a definition).
    std::size_t brace = std::string::npos;
    for (std::size_t j = close; j < t.size(); ++j) {
      if (t[j] == ';') break;
      if (t[j] == '{') {
        brace = j;
        break;
      }
    }
    if (brace == std::string::npos) continue;
    if (!IsQualifierRegion(t.substr(close, brace - close))) continue;
    const std::size_t body_end = BalancedBraceEnd(t, brace);
    if (body_end == std::string::npos) continue;
    FunctionDef def;
    def.name = name;
    def.header = t.substr(name_pos, brace - name_pos);
    def.body = t.substr(brace, body_end - brace);
    def.body_begin = brace;
    def.line = LineOf(idx.starts, name_pos);
    idx.defs.push_back(std::move(def));
  }
  return idx;
}

/// Splits an annotation argument list ("mu_", "a, b") into trimmed
/// member tokens.
std::vector<std::string> SplitAnnotationArgs(const std::string& args) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= args.size()) {
    std::size_t comma = args.find(',', pos);
    if (comma == std::string::npos) comma = args.size();
    std::string tok = args.substr(pos, comma - pos);
    const std::size_t b = tok.find_first_not_of(" \t&!*");
    const std::size_t e = tok.find_last_not_of(" \t");
    if (b != std::string::npos) out.push_back(tok.substr(b, e - b + 1));
    pos = comma + 1;
  }
  return out;
}

// --- guard tracking ----------------------------------------------------

struct HeldLock {
  std::string var;  // lock variable name; "" for REQUIRES-implied
  std::string cap;  // capability text, e.g. "mu_" or "shard.mu"
  int depth = 0;    // brace depth at acquisition (0 = whole body)
  bool active = true;
};

enum class EvKind { kOpenBrace, kCloseBrace, kAcquire, kUnlock, kRelock, kCall };

struct GuardEvent {
  std::size_t pos = 0;
  EvKind kind = EvKind::kOpenBrace;
  std::string a;      // acquire: lock var; unlock/relock: lock var; call: name
  std::string b;      // acquire: capability; call: "*" for (*name)(...)
};

std::vector<GuardEvent> CollectGuardEvents(const std::string& body) {
  std::vector<GuardEvent> events;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == '{') events.push_back({i, EvKind::kOpenBrace, "", ""});
    if (body[i] == '}') events.push_back({i, EvKind::kCloseBrace, "", ""});
  }
  static const std::regex kAcquire(R"(MutexLock\s+(\w+)\s*\(([^)]*)\))");
  for (std::sregex_iterator it(body.begin(), body.end(), kAcquire), end;
       it != end; ++it) {
    std::string cap = (*it)[2].str();
    const std::size_t b = cap.find_first_not_of(" \t");
    const std::size_t e = cap.find_last_not_of(" \t");
    cap = b == std::string::npos ? "" : cap.substr(b, e - b + 1);
    events.push_back({static_cast<std::size_t>(it->position()),
                      EvKind::kAcquire, (*it)[1].str(), cap});
  }
  static const std::regex kUnlock(R"((\w+)\.Unlock\s*\(\s*\))");
  for (std::sregex_iterator it(body.begin(), body.end(), kUnlock), end;
       it != end; ++it) {
    events.push_back({static_cast<std::size_t>(it->position()),
                      EvKind::kUnlock, (*it)[1].str(), ""});
  }
  static const std::regex kRelock(R"((\w+)\.Lock\s*\(\s*\))");
  for (std::sregex_iterator it(body.begin(), body.end(), kRelock), end;
       it != end; ++it) {
    events.push_back({static_cast<std::size_t>(it->position()),
                      EvKind::kRelock, (*it)[1].str(), ""});
  }
  static const std::regex kCall(
      R"((?:\(\s*\*\s*([A-Za-z_]\w*)\s*\)|([A-Za-z_]\w*))\s*\()");
  for (std::sregex_iterator it(body.begin(), body.end(), kCall), end;
       it != end; ++it) {
    if ((*it)[1].matched) {
      events.push_back({static_cast<std::size_t>(it->position()),
                        EvKind::kCall, (*it)[1].str(), "*"});
    } else {
      const std::string name = (*it)[2].str();
      if (IsControlKeyword(name)) continue;
      events.push_back({static_cast<std::size_t>(it->position()),
                        EvKind::kCall, name, ""});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const GuardEvent& x, const GuardEvent& y) {
                     return x.pos < y.pos;
                   });
  return events;
}

/// Capabilities a definition's E2GCL_REQUIRES annotation implies are
/// held for the whole body.
std::vector<std::string> RequiredCaps(const FunctionDef& def) {
  std::vector<std::string> caps;
  static const std::regex kRequires(R"(E2GCL_REQUIRES\s*\(([^)]*)\))");
  for (std::sregex_iterator it(def.header.begin(), def.header.end(),
                               kRequires),
       end;
       it != end; ++it) {
    for (const std::string& c : SplitAnnotationArgs((*it)[1].str())) {
      caps.push_back(c);
    }
  }
  return caps;
}

/// Walks `def`'s body in source order, maintaining the held-capability
/// stack, and invokes `visit(event, held)` for every kAcquire and kCall
/// event (with `held` NOT yet including the lock a kAcquire is taking).
template <typename Visit>
void WalkGuards(const FunctionDef& def, Visit visit) {
  std::vector<HeldLock> held;
  for (const std::string& cap : RequiredCaps(def)) {
    held.push_back({"", cap, 0, true});
  }
  int depth = 0;
  for (const GuardEvent& ev : CollectGuardEvents(def.body)) {
    switch (ev.kind) {
      case EvKind::kOpenBrace:
        ++depth;
        break;
      case EvKind::kCloseBrace:
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        break;
      case EvKind::kAcquire:
        visit(ev, held);
        held.push_back({ev.a, ev.b, depth, true});
        break;
      case EvKind::kUnlock:
        for (HeldLock& h : held) {
          if (h.var == ev.a) h.active = false;
        }
        break;
      case EvKind::kRelock:
        for (HeldLock& h : held) {
          if (h.var == ev.a) h.active = true;
        }
        break;
      case EvKind::kCall:
        visit(ev, held);
        break;
    }
  }
}

bool AnyActive(const std::vector<HeldLock>& held) {
  for (const HeldLock& h : held) {
    if (h.active) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Rule: blocking-in-event-loop
//
// Functions marked E2GCL_LOOP_BODY (the net event loop) and everything
// reachable from them through the same-file call graph must never
// block: a blocking syscall, condition wait, sleep, or join inside the
// loop stalls every connection at once. The loop's bounded ::poll wait
// is its single sanctioned block, so ::poll is deliberately NOT in the
// pattern set; nonblocking-fd syscalls (EAGAIN-bounded
// recv/send/accept/read) carry a justified suppression where the fd
// mode is established.

const std::vector<std::string>& BlockingPatterns() {
  static const std::vector<std::string> kPatterns = {
      ".wait(",      "->wait(",     ".wait_for(",   ".wait_until(",
      ".Wait(",      "->Wait(",     ".WaitUntil(",  "->WaitUntil(",
      "sleep_for(",  "sleep_until(", "usleep(",     "nanosleep(",
      "::sleep(",    "::recv(",     "::recvfrom(",  "::read(",
      "::accept(",   "::connect(",  "::send(",      "::sendto(",
      "::write(",    ".join(",      "->join("};
  return kPatterns;
}

void RuleBlockingInEventLoop(const std::string& path, const LexedFile& lexed,
                             std::vector<Finding>* out) {
  // Cheap early-out: no marker, no roots, no work.
  bool has_marker = false;
  for (const std::string& line : lexed.code) {
    if (line.find("E2GCL_LOOP_BODY") != std::string::npos) {
      has_marker = true;
      break;
    }
  }
  if (!has_marker) return;
  const FunctionIndex idx = BuildFunctionIndex(lexed);
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < idx.defs.size(); ++i) {
    by_name[idx.defs[i].name].push_back(i);
  }
  // BFS from every E2GCL_LOOP_BODY-marked definition; reachability is
  // independent of suppressions (a suppressed call site still pulls its
  // callee into the analyzed set).
  std::map<std::size_t, std::string> reached_via;  // def -> root name
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < idx.defs.size(); ++i) {
    if (idx.defs[i].header.find("E2GCL_LOOP_BODY") != std::string::npos) {
      reached_via.emplace(i, idx.defs[i].name);
      queue.push_back(i);
    }
  }
  if (queue.empty()) return;
  static const std::regex kCallName(R"(([A-Za-z_]\w*)\s*\()");
  while (!queue.empty()) {
    const std::size_t cur = queue.back();
    queue.pop_back();
    const std::string& body = idx.defs[cur].body;
    const std::string root = reached_via[cur];
    for (std::sregex_iterator it(body.begin(), body.end(), kCallName), end;
         it != end; ++it) {
      const auto callee = by_name.find((*it)[1].str());
      if (callee == by_name.end()) continue;
      for (std::size_t j : callee->second) {
        if (j == cur || reached_via.count(j) != 0) continue;
        reached_via.emplace(j, root);
        queue.push_back(j);
      }
    }
  }
  for (const auto& [def_idx, root] : reached_via) {
    const FunctionDef& def = idx.defs[def_idx];
    for (const std::string& pattern : BlockingPatterns()) {
      std::size_t pos = def.body.find(pattern);
      while (pos != std::string::npos) {
        Add(out, "blocking-in-event-loop", Severity::kError, path,
            LineOf(idx.starts, def.body_begin + pos),
            "blocking call '" + pattern.substr(0, pattern.size() - 1) +
                "' in '" + def.name + "', reachable from event-loop body '" +
                root + "'; the loop may only block in the poller's bounded "
                "wait");
        pos = def.body.find(pattern, pos + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: unannotated-mutex
//
// Every mutex/condition-variable member in src/ must participate in the
// thread-safety story: a Mutex (or std::mutex) either guards something
// — its name appears as an E2GCL_* annotation argument somewhere in the
// file — or its own declaration carries an ordering annotation; a
// CondVar (or std::condition_variable) declaration must itself say
// which mutex guards it (E2GCL_GUARDED_BY on the declaration). An
// unannotated primitive is invisible to -Wthread-safety, which is
// exactly how unguarded state slips in.

void RuleUnannotatedMutex(const std::string& path, const LexedFile& lexed,
                          std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  static const std::regex kDecl(
      R"(^\s*(?:mutable\s+)?(?:static\s+)?(?:e2gcl::)?(Mutex|CondVar|std::mutex|std::recursive_mutex|std::shared_mutex|std::timed_mutex|std::condition_variable_any|std::condition_variable)\s+(\w+))");
  static const std::regex kAnnotationArgs(
      R"(E2GCL_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRED_BEFORE|ACQUIRED_AFTER)\s*\(([^)]*)\))");
  std::set<std::string> referenced;
  for (const std::string& line : lexed.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), kAnnotationArgs),
         end;
         it != end; ++it) {
      for (const std::string& tok : SplitAnnotationArgs((*it)[1].str())) {
        referenced.insert(tok);
      }
    }
  }
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lexed.code[i], m, kDecl)) continue;
    const std::string type = m[1].str();
    const std::string name = m[2].str();
    // The whole declaration statement (annotations may wrap lines).
    std::string stmt = lexed.code[i];
    for (std::size_t j = i + 1;
         j < lexed.code.size() && stmt.find(';') == std::string::npos; ++j) {
      stmt += ' ';
      stmt += lexed.code[j];
    }
    const bool is_condvar =
        type == "CondVar" || type.find("condition_variable") != std::string::npos;
    if (is_condvar) {
      if (stmt.find("E2GCL_GUARDED_BY(") == std::string::npos) {
        Add(out, "unannotated-mutex", Severity::kError, path,
            static_cast<int>(i + 1),
            "condition variable '" + name +
                "' must declare its guarding mutex (E2GCL_GUARDED_BY on "
                "the declaration) so waits and notifies stay paired with "
                "the guarded predicate");
      }
    } else {
      const bool decl_annotated = stmt.find("E2GCL_") != std::string::npos;
      if (!decl_annotated && referenced.count(name) == 0) {
        Add(out, "unannotated-mutex", Severity::kError, path,
            static_cast<int>(i + 1),
            "mutex '" + name +
                "' guards nothing: no E2GCL_GUARDED_BY/REQUIRES/... in "
                "this file names it, and its declaration carries no "
                "annotation (see core/thread_annotations.h)");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: lock-order
//
// The acquisition-order graph — E2GCL_ACQUIRED_BEFORE/AFTER edges on
// declarations, `// e2gcl-lock-order: a < b` manifest comments, and
// every nesting actually observed in a body (an inner MutexLock while
// another capability is held) — must be acyclic within the file, and a
// capability must never be re-acquired while already held. A cycle is a
// latent deadlock: two threads taking the edges in opposite order stall
// forever.

void RuleLockOrder(const std::string& path, const LexedFile& lexed,
                   std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  // (before, after) -> line that established the edge (first wins).
  std::map<std::pair<std::string, std::string>, int> edges;
  auto identifier_like = [](const std::string& s) {
    if (s.empty()) return false;
    for (char c : s) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
          c != '.' && c != '-' && c != '>') {
        return false;
      }
    }
    return std::isalpha(static_cast<unsigned char>(s[0])) != 0 ||
           s[0] == '_';
  };
  auto add_edge = [&](const std::string& before, const std::string& after,
                      int line) {
    if (before == after) return;  // self-edges reported separately
    if (!identifier_like(before) || !identifier_like(after)) return;
    edges.emplace(std::make_pair(before, after), line);
  };
  static const std::regex kBefore(R"((\w+)\s+E2GCL_ACQUIRED_BEFORE\(([^)]*)\))");
  static const std::regex kAfter(R"((\w+)\s+E2GCL_ACQUIRED_AFTER\(([^)]*)\))");
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    const std::string& line = lexed.code[i];
    // Never read annotation *macro definitions* as declared edges.
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    for (std::sregex_iterator it(line.begin(), line.end(), kBefore), end;
         it != end; ++it) {
      for (const std::string& arg : SplitAnnotationArgs((*it)[2].str())) {
        add_edge((*it)[1].str(), arg, static_cast<int>(i + 1));
      }
    }
    for (std::sregex_iterator it(line.begin(), line.end(), kAfter), end;
         it != end; ++it) {
      for (const std::string& arg : SplitAnnotationArgs((*it)[2].str())) {
        add_edge(arg, (*it)[1].str(), static_cast<int>(i + 1));
      }
    }
  }
  // Declared-order manifests live in comments: `e2gcl-lock-order: a < b`.
  static const std::regex kManifest(
      R"(e2gcl-lock-order:\s*(\w+(?:\s*<\s*\w+)+))");
  for (const auto& [line, text] : lexed.comments) {
    std::smatch m;
    std::string rest = text;
    while (std::regex_search(rest, m, kManifest)) {
      const std::string chain = m[1].str();
      static const std::regex kTok(R"(\w+)");
      std::string prev;
      for (std::sregex_iterator it(chain.begin(), chain.end(), kTok), end;
           it != end; ++it) {
        const std::string tok = it->str();
        if (!prev.empty()) add_edge(prev, tok, line);
        prev = tok;
      }
      rest = m.suffix().str();
    }
  }
  // Observed nestings (and self-nesting errors) from every body.
  const FunctionIndex idx = BuildFunctionIndex(lexed);
  for (const FunctionDef& def : idx.defs) {
    WalkGuards(def, [&](const GuardEvent& ev,
                        const std::vector<HeldLock>& held) {
      if (ev.kind != EvKind::kAcquire) return;
      const int line = LineOf(idx.starts, def.body_begin + ev.pos);
      for (const HeldLock& h : held) {
        if (!h.active) continue;
        if (h.cap == ev.b) {
          Add(out, "lock-order", Severity::kError, path, line,
              "'" + ev.b + "' acquired in '" + def.name +
                  "' while already held (self-deadlock on a "
                  "non-recursive mutex)");
        } else {
          add_edge(h.cap, ev.b, line);
        }
      }
    });
  }
  // Cycle check: DFS over the merged graph. Any cycle means the
  // declared and observed orders cannot all be followed at once.
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& [edge, line] : edges) {
    graph[edge.first].push_back(edge.second);
  }
  std::set<std::string> done;
  for (const auto& [start, ignored] : graph) {
    if (done.count(start) != 0) continue;
    // Iterative DFS with an explicit path for the error message.
    std::vector<std::pair<std::string, std::size_t>> stack{{start, 0}};
    std::set<std::string> on_path{start};
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto it = graph.find(node);
      if (it == graph.end() || next >= it->second.size()) {
        done.insert(node);
        on_path.erase(node);
        stack.pop_back();
        continue;
      }
      const std::string child = it->second[next++];
      if (on_path.count(child) != 0) {
        std::string cycle = child;
        for (std::size_t k = 0; k < stack.size(); ++k) {
          if (on_path.count(stack[k].first) != 0) {
            cycle += " -> " + stack[k].first;
          }
        }
        cycle += " -> " + child;
        Add(out, "lock-order", Severity::kError, path,
            edges[std::make_pair(node, child)],
            "lock acquisition order cycle (" + cycle +
                "): declared and observed orders must be acyclic — fix "
                "the nesting or the e2gcl-lock-order manifest");
        done.insert(node);
        on_path.erase(node);
        stack.pop_back();
        continue;
      }
      if (done.count(child) == 0) {
        on_path.insert(child);
        stack.push_back({child, 0});
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: hold-lock-across-callback
//
// User-supplied code must never run under an e2gcl::Mutex: a callback
// that blocks stalls every waiter, and one that re-enters the
// subsystem deadlocks on the non-recursive lock. The rule flags, while
// any capability is held, calls through (*ptr)(...), calls to names
// declared std::function in the same file, and calls to names with
// callback-convention suffixes (fn/cb/callback/handler/hook). Virtual
// dispatch cannot be resolved per-TU and is approximated by the same
// naming convention. The fix is the FlusherLoop shape: Unlock, call,
// Lock.

bool HasCallbackSuffix(std::string name) {
  while (!name.empty() && name.back() == '_') name.pop_back();
  static const std::vector<std::string> kSuffixes = {"fn", "cb", "callback",
                                                     "handler", "hook"};
  for (const std::string& s : kSuffixes) {
    if (EndsWith(name, s)) return true;
  }
  return false;
}

void RuleHoldLockAcrossCallback(const std::string& path,
                                const LexedFile& lexed,
                                std::vector<Finding>* out) {
  if (!InLibrary(path)) return;
  const std::string joined = Join(lexed.code);
  // Names declared with std::function type anywhere in this file
  // (members, locals, parameters).
  std::set<std::string> fn_typed;
  std::size_t pos = joined.find("std::function<");
  while (pos != std::string::npos) {
    std::size_t i = pos + 13;  // at '<'
    int depth = 0;
    while (i < joined.size()) {
      if (joined[i] == '<') ++depth;
      if (joined[i] == '>' && --depth == 0) break;
      ++i;
    }
    if (i < joined.size()) {
      static const std::regex kVar(R"(^[\s&*]*([A-Za-z_]\w*))");
      const std::string after = joined.substr(i + 1, 160);
      std::smatch m;
      if (std::regex_search(after, m, kVar)) fn_typed.insert(m[1].str());
    }
    pos = joined.find("std::function<", pos + 1);
  }
  const FunctionIndex idx = BuildFunctionIndex(lexed);
  for (const FunctionDef& def : idx.defs) {
    WalkGuards(def, [&](const GuardEvent& ev,
                        const std::vector<HeldLock>& held) {
      if (ev.kind != EvKind::kCall || !AnyActive(held)) return;
      const bool deref = ev.b == "*";
      if (!deref && fn_typed.count(ev.a) == 0 && !HasCallbackSuffix(ev.a)) {
        return;
      }
      std::string cap;
      for (const HeldLock& h : held) {
        if (h.active) cap = h.cap;
      }
      Add(out, "hold-lock-across-callback", Severity::kError, path,
          LineOf(idx.starts, def.body_begin + ev.pos),
          "callback '" + ev.a + "' invoked in '" + def.name + "' while '" +
              cap + "' is held; drop the lock around user code "
              "(Unlock/call/Lock) so it cannot block or re-enter");
    });
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"unordered-iteration", Severity::kError,
       "no hash-order-dependent iteration over std::unordered_{map,set} "
       "in library code"},
      {"banned-random", Severity::kError,
       "rand/srand/time()/random_device banned outside src/tensor/rng"},
      {"atomic-float", Severity::kError,
       "no std::atomic<float|double>; reductions use chunk-ordered "
       "partials"},
      {"raw-file-write", Severity::kError,
       "library file writes go through WriteFileAtomic"},
      {"naked-new-delete", Severity::kError,
       "no naked new/delete in library code"},
      {"stdout-in-library", Severity::kError,
       "no printf/std::cout in library code"},
      {"parallel-reduction", Severity::kWarning,
       "ParallelFor bodies must not compound-assign captured scalars"},
      {"include-guard", Severity::kError,
       "headers carry a matched include guard or #pragma once"},
      {"float-index-cast", Severity::kWarning,
       "float->index casts make rounding explicit"},
      {"raw-simd-intrinsic", Severity::kError,
       "vector intrinsics and <immintrin.h> only under src/tensor/simd/"},
      {"raw-socket-io", Severity::kError,
       "socket syscalls and socket headers only under src/net/"},
      {"test-include-in-library", Severity::kError,
       "src/ headers never include tests/ or tools/"},
      {"blocking-in-event-loop", Severity::kError,
       "no blocking call reachable from an E2GCL_LOOP_BODY event loop"},
      {"unannotated-mutex", Severity::kError,
       "every mutex guards something; every condvar declares its mutex"},
      {"lock-order", Severity::kError,
       "declared + observed lock acquisition order is acyclic, no "
       "re-acquisition while held"},
      {"hold-lock-across-callback", Severity::kError,
       "no user callback invoked while a mutex capability is held"},
      {"suppression-justification", Severity::kError,
       "every suppression names a known rule and carries a "
       "justification"},
  };
  return kRules;
}

void RunAllRules(const std::string& path, const LexedFile& lexed,
                 std::vector<Finding>* out) {
  // Every rule pass in execution order (the meta rule
  // suppression-justification runs in the engine, not here).
  using RulePass = void (*)(const std::string&, const LexedFile&,
                            std::vector<Finding>*);
  static constexpr RulePass kPasses[] = {
      &RuleUnorderedIteration,
      &RuleBannedRandom,
      &RuleAtomicFloat,
      &RuleRawFileWrite,
      &RuleNakedNewDelete,
      &RuleStdoutInLibrary,
      &RuleParallelReduction,
      &RuleIncludeGuard,
      &RuleFloatIndexCast,
      &RuleRawSimdIntrinsic,
      &RuleRawSocketIo,
      &RuleTestIncludeInLibrary,
      &RuleBlockingInEventLoop,
      &RuleUnannotatedMutex,
      &RuleLockOrder,
      &RuleHoldLockAcrossCallback,
  };
  for (RulePass pass : kPasses) pass(path, lexed, out);
}

}  // namespace lint
}  // namespace e2gcl
