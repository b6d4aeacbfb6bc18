// Drives the e2gcl_lint engine against embedded good/bad fixtures for
// every rule, the suppression contract (justification required,
// rule-scoped), JSON output, exit codes — and finally self-checks that
// the shipped tree is lint-clean.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.h"
#include "tools/lint/lint.h"
#include "tools/lint/rules.h"

namespace e2gcl {
namespace lint {
namespace {

// Counts unsuppressed findings for `rule` (the fixtures below must
// trip exactly the rule under test).
int Count(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const Finding& f : fs) {
    if (!f.suppressed && f.rule == rule) ++n;
  }
  return n;
}

int CountSuppressed(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const Finding& f : fs) {
    if (f.suppressed && f.rule == rule) ++n;
  }
  return n;
}

const char kLibPath[] = "src/core/fixture.cc";
const char kTestPath[] = "tests/fixture_test.cc";

// --- Rule: unordered-iteration ---------------------------------------

TEST(LintRules, UnorderedIterationFlagsRangeForAndDrain) {
  const std::string bad = R"(
    #include <unordered_map>
    double Sum(const std::unordered_map<int, double>& m) {
      std::unordered_map<int, double> local = m;
      double s = 0.0;
      for (const auto& [k, v] : local) s += v;
      std::vector<std::pair<int, double>> out(local.begin(), local.end());
      return s;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "unordered-iteration"), 2);
}

TEST(LintRules, UnorderedIterationIgnoresLookupsAndOrderedContainers) {
  const std::string good = R"(
    #include <map>
    double Sum(const std::map<int, double>& m) {
      std::unordered_map<int, double> lookup;
      lookup[3] = 1.0;
      if (lookup.count(3) != 0) return lookup.find(3)->second;
      double s = 0.0;
      for (const auto& [k, v] : m) s += v;
      return s;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "unordered-iteration"), 0);
}

TEST(LintRules, UnorderedIterationOnlyAppliesToLibraryCode) {
  const std::string bad = R"(
    std::unordered_map<int, int> m;
    void F() { for (const auto& [k, v] : m) Use(k, v); }
  )";
  EXPECT_EQ(Count(LintContent(kTestPath, bad), "unordered-iteration"), 0);
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "unordered-iteration"), 1);
}

// --- Rule: banned-random ---------------------------------------------

TEST(LintRules, BannedRandomFlagsLibcAndRandomDevice) {
  const std::string bad = R"(
    int F() {
      srand(42);
      std::random_device rd;
      return std::rand() + static_cast<int>(time(nullptr));
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "banned-random"), 3);
}

TEST(LintRules, BannedRandomAllowsRngModuleAndLookalikes) {
  const std::string lookalikes = R"(
    double WallTime() { return 0.0; }
    double runtime(int x) { return WallTime() + x; }
    int Strand(int brand) { return brand; }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, lookalikes), "banned-random"), 0);
  const std::string rng_impl = "std::random_device rd;\n";
  EXPECT_EQ(Count(LintContent("src/tensor/rng.cc", rng_impl), "banned-random"),
            0);
  EXPECT_EQ(Count(LintContent(kLibPath, rng_impl), "banned-random"), 1);
}

// --- Rule: atomic-float ----------------------------------------------

TEST(LintRules, AtomicFloatFlagsFloatAndDouble) {
  const std::string bad = R"(
    std::atomic<float> sum{0.0f};
    std::atomic< double > total{0.0};
  )";
  std::vector<Finding> fs = LintContent(kLibPath, bad);
  EXPECT_EQ(Count(fs, "atomic-float"), 2);
  const std::string good = "std::atomic<std::uint64_t> n{0};\n";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "atomic-float"), 0);
}

// --- Rule: raw-file-write --------------------------------------------

TEST(LintRules, RawFileWriteFlagsOfstreamAndWriteModeFopen) {
  const std::string bad = R"(
    bool Save(const std::string& path) {
      std::ofstream out(path);
      std::FILE* f = std::fopen(path.c_str(), "wb");
      return out.good() && f != nullptr;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "raw-file-write"), 2);
}

TEST(LintRules, RawFileWriteAllowsReadsAndNonLibraryCode) {
  const std::string reads = R"(
    bool Load(const std::string& path) {
      std::ifstream in(path);
      std::FILE* f = std::fopen(path.c_str(), "rb");
      return in.good() && f != nullptr;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, reads), "raw-file-write"), 0);
  const std::string write = "std::ofstream out(\"x\");\n";
  EXPECT_EQ(Count(LintContent(kTestPath, write), "raw-file-write"), 0);
}

// --- Rule: naked-new-delete ------------------------------------------

TEST(LintRules, NakedNewDeleteFlagsBoth) {
  const std::string bad = R"(
    void F() {
      int* p = new int[3];
      delete[] p;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "naked-new-delete"), 2);
}

TEST(LintRules, NakedNewDeleteAllowsDeletedFunctionsAndSmartPointers) {
  const std::string good = R"(
    struct NoCopy {
      NoCopy(const NoCopy&) = delete;
      NoCopy& operator=(const NoCopy&) = delete;
    };
    auto p = std::make_unique<int>(3);
    auto s = std::make_shared<int>(4);
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "naked-new-delete"), 0);
}

// --- Rule: stdout-in-library -----------------------------------------

TEST(LintRules, StdoutFlagsCoutAndPrintf) {
  const std::string bad = R"(
    void Report(int x) {
      std::cout << x;
      printf("%d", x);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "stdout-in-library"), 2);
}

TEST(LintRules, StdoutAllowsStderrAndSnprintf) {
  const std::string good = R"(
    void Warn(const char* m) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s", m);
      std::fprintf(stderr, "%s\n", buf);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "stdout-in-library"), 0);
  EXPECT_EQ(Count(LintContent("tools/cli.cc", "printf(\"x\");"),
                  "stdout-in-library"),
            0);
}

// --- Rule: parallel-reduction ----------------------------------------

TEST(LintRules, ParallelReductionFlagsCapturedAccumulator) {
  const std::string bad = R"(
    double Sum(const float* x, std::int64_t n) {
      double sum = 0.0;
      ParallelFor(0, n, 1 << 15, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) sum += x[i];
      });
      return sum;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "parallel-reduction"), 1);
}

TEST(LintRules, ParallelReductionAllowsChunkPartialsAndLocals) {
  const std::string good = R"(
    double Sum(const float* x, std::int64_t n) {
      std::vector<double> partial(NumChunks(n, kGrain), 0.0);
      ParallelForChunks(0, n, kGrain,
                        [&](std::int64_t c, std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) acc += x[i];
        partial[c] += acc;
      });
      double sum = 0.0;
      for (double p : partial) sum += p;
      return sum;
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "parallel-reduction"), 0);
}

// --- Rule: include-guard ---------------------------------------------

TEST(LintRules, IncludeGuardMissingMismatchedAndGood) {
  EXPECT_EQ(Count(LintContent("src/a.h", "struct A {};\n"), "include-guard"),
            1);
  const std::string mismatched =
      "#ifndef A_H_\n#define B_H_\nstruct A {};\n#endif\n";
  EXPECT_EQ(Count(LintContent("src/a.h", mismatched), "include-guard"), 1);
  const std::string unclosed = "#ifndef A_H_\n#define A_H_\nstruct A {};\n";
  EXPECT_EQ(Count(LintContent("src/a.h", unclosed), "include-guard"), 1);
  const std::string good =
      "#ifndef A_H_\n#define A_H_\nstruct A {};\n#endif  // A_H_\n";
  EXPECT_EQ(Count(LintContent("src/a.h", good), "include-guard"), 0);
  EXPECT_EQ(Count(LintContent("src/b.h", "#pragma once\nstruct B {};\n"),
                  "include-guard"),
            0);
  // Not a header: never flagged.
  EXPECT_EQ(Count(LintContent(kLibPath, "struct C {};\n"), "include-guard"),
            0);
}

// --- Rule: float-index-cast ------------------------------------------

TEST(LintRules, FloatIndexCastFlagsTruncationAndAllowsExplicitRounding) {
  const std::string bad =
      "const std::int64_t n = static_cast<std::int64_t>(total * frac);\n";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "float-index-cast"), 1);
  const std::string rounded =
      "const std::int64_t n = "
      "static_cast<std::int64_t>(std::floor(total * frac));\n";
  EXPECT_EQ(Count(LintContent(kLibPath, rounded), "float-index-cast"), 0);
  const std::string bytes =
      "const std::int64_t b = static_cast<std::int64_t>(sizeof(float));\n";
  EXPECT_EQ(Count(LintContent(kLibPath, bytes), "float-index-cast"), 0);
  const std::string ints =
      "const std::int64_t m = static_cast<std::int64_t>(rows * cols);\n";
  EXPECT_EQ(Count(LintContent(kLibPath, ints), "float-index-cast"), 0);
}

// --- Rule: raw-simd-intrinsic ----------------------------------------

TEST(LintRules, RawSimdIntrinsicFlagsIntrinsicsOutsideKernelLayer) {
  // The include token is spliced so this test file itself (whose string
  // contents are linted too) does not trip the rule.
  const std::string bad = std::string("#include <immintrin") + ".h>\n" + R"(
    float Sum8(const float* x) {
      __m256 v = _mm256_loadu_ps(x);
      v = _mm256_add_ps(v, v);
      return _mm_cvtss_f32(_mm256_castps256_ps128(v));
    }
  )";
  // include + __m256 decl + two lines with _mm* calls.
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "raw-simd-intrinsic"), 4);
  EXPECT_EQ(Count(LintContent("tools/cli.cc", bad), "raw-simd-intrinsic"), 4);
}

TEST(LintRules, RawSimdIntrinsicAllowsKernelLayerAndLookalikes) {
  const std::string kernels = std::string("#include <immintrin") + ".h>\n" +
                              R"(
    __m256 Load(const float* x) { return _mm256_loadu_ps(x); }
  )";
  EXPECT_EQ(Count(LintContent("src/tensor/simd/simd_avx2.cc", kernels),
                  "raw-simd-intrinsic"),
            0);
  const std::string lookalikes = R"(
    #include "tensor/simd/simd.h"
    float f = simd::Dot(a, b, n);   // dispatched API is fine
    int comm_mm256 = 0;             // _mm must start the token
    // _mm256_loadu_ps in a comment does not count
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, lookalikes), "raw-simd-intrinsic"),
            0);
}

TEST(LintRules, RawSimdIntrinsicHonorsJustifiedSuppression) {
  const std::string suppressed =
      "// e2gcl-lint: allow(raw-simd-intrinsic): prefetch hint only\n"
      "_mm_prefetch(p, 1);\n";
  const std::vector<Finding> fs = LintContent(kLibPath, suppressed);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  EXPECT_EQ(CountUnsuppressed(fs), 0);
}

// --- Rule: raw-socket-io ----------------------------------------------

TEST(LintRules, RawSocketIoFlagsSyscallsAndHeadersOutsideNet) {
  const std::string bad = std::string("#include <sys/socket") + ".h>\n" +
                          std::string("#include <netinet/tcp") + ".h>\n" + R"(
    int Dial(int fd, const sockaddr* a, socklen_t n) {
      if (::connect(fd, a, n) != 0) return -1;
      return static_cast<int>(::send(fd, "x", 1, 0));
    }
  )";
  // Two headers + ::connect + ::send.
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "raw-socket-io"), 4);
  EXPECT_EQ(Count(LintContent("src/serve/embedding_server.cc", bad),
                  "raw-socket-io"),
            4);
}

TEST(LintRules, RawSocketIoAllowsNetLayerToolsTestsAndLookalikes) {
  const std::string sockets = std::string("#include <sys/socket") + ".h>\n" +
                              "::recv(fd, buf, n, 0);\n";
  EXPECT_EQ(Count(LintContent("src/net/server.cc", sockets), "raw-socket-io"),
            0);
  EXPECT_EQ(Count(LintContent("src/net/client.cc", sockets), "raw-socket-io"),
            0);
  // Tools and tests talk to sockets on purpose (bench clients, torture
  // fixtures forging hostile frames).
  EXPECT_EQ(Count(LintContent("tools/e2gcl_serve.cc", sockets),
                  "raw-socket-io"),
            0);
  EXPECT_EQ(Count(LintContent(kTestPath, sockets), "raw-socket-io"), 0);
  const std::string lookalikes = R"(
    #include "net/client.h"
    std::bind(&F::Run, this);        // unqualified lookalike names
    client.connect();                 // member call, not ::connect
    listener->accept_all();
    // ::send in a comment does not count
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, lookalikes), "raw-socket-io"), 0);
}

TEST(LintRules, RawSocketIoHonorsJustifiedSuppression) {
  const std::string suppressed =
      "// e2gcl-lint: allow(raw-socket-io): self-pipe wakeup, not a socket\n"
      "::send(fd, &b, 1, 0);\n";
  const std::vector<Finding> fs = LintContent(kLibPath, suppressed);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  EXPECT_EQ(CountUnsuppressed(fs), 0);
}

// --- Rule: test-include-in-library -----------------------------------

TEST(LintRules, TestIncludeFlagsTestsToolsAndRelativeIncludes) {
  EXPECT_EQ(Count(LintContent(kLibPath, "#include \"tests/test_util.h\"\n"),
                  "test-include-in-library"),
            1);
  EXPECT_EQ(Count(LintContent(kLibPath, "#include \"tools/lint/lint.h\"\n"),
                  "test-include-in-library"),
            1);
  EXPECT_EQ(Count(LintContent(kLibPath, "#include \"../secret.h\"\n"),
                  "test-include-in-library"),
            1);
  EXPECT_EQ(Count(LintContent(kLibPath, "#include \"graph/graph.h\"\n"),
                  "test-include-in-library"),
            0);
  // Tests may include tool headers (this very test does).
  EXPECT_EQ(Count(LintContent(kTestPath, "#include \"tools/lint/lint.h\"\n"),
                  "test-include-in-library"),
            0);
}

// --- Suppressions -----------------------------------------------------

TEST(LintSuppressions, JustifiedSuppressionSilencesFinding) {
  const std::string code =
      "std::cout << 1;  // e2gcl-lint: allow(stdout-in-library): fixture\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(Count(fs, "stdout-in-library"), 0);
  EXPECT_EQ(CountSuppressed(fs, "stdout-in-library"), 1);
  for (const Finding& f : fs) {
    if (f.suppressed) {
      EXPECT_EQ(f.justification, "fixture");
    }
  }
  EXPECT_EQ(ExitCode(fs), 0);
}

TEST(LintSuppressions, SuppressionOnOwnLineCoversNextCodeLine) {
  const std::string code =
      "// e2gcl-lint: allow(stdout-in-library): fixture covers next line\n"
      "std::cout << 1;\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(Count(fs, "stdout-in-library"), 0);
  EXPECT_EQ(CountSuppressed(fs, "stdout-in-library"), 1);
}

TEST(LintSuppressions, MissingJustificationIsItselfAFinding) {
  const std::string code =
      "std::cout << 1;  // e2gcl-lint: allow(stdout-in-library)\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  // The bare allow() does not suppress, and is reported itself.
  EXPECT_EQ(Count(fs, "stdout-in-library"), 1);
  EXPECT_EQ(Count(fs, "suppression-justification"), 1);
  EXPECT_EQ(ExitCode(fs), 1);
  // Empty justification after the colon is just as invalid.
  const std::string empty =
      "std::cout << 1;  // e2gcl-lint: allow(stdout-in-library):   \n";
  fs = LintContent(kLibPath, empty);
  EXPECT_EQ(Count(fs, "stdout-in-library"), 1);
  EXPECT_EQ(Count(fs, "suppression-justification"), 1);
}

TEST(LintSuppressions, UnknownRuleIsAFinding) {
  const std::string code =
      "int x = 0;  // e2gcl-lint: allow(no-such-rule): because\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(Count(fs, "suppression-justification"), 1);
}

TEST(LintSuppressions, SuppressionsAreRuleScoped) {
  // Two different violations on one line; only one is suppressed.
  const std::string code =
      "std::cout << std::rand();  "
      "// e2gcl-lint: allow(stdout-in-library): fixture\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(Count(fs, "stdout-in-library"), 0);
  EXPECT_EQ(CountSuppressed(fs, "stdout-in-library"), 1);
  EXPECT_EQ(Count(fs, "banned-random"), 1);  // NOT silenced
  EXPECT_EQ(ExitCode(fs), 1);
}

TEST(LintSuppressions, SuppressionDoesNotLeakToOtherLines) {
  const std::string code =
      "std::cout << 1;  // e2gcl-lint: allow(stdout-in-library): fixture\n"
      "std::cout << 2;\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(Count(fs, "stdout-in-library"), 1);
}

// --- Rule: blocking-in-event-loop ------------------------------------

TEST(LintRules, BlockingInEventLoopFlagsDirectAndTransitiveBlocking) {
  const std::string bad = R"(
    void Step() {
      queue_cv_.Wait(lock);
    }
    void Loop() E2GCL_LOOP_BODY {
      Step();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  )";
  std::vector<Finding> fs = LintContent(kLibPath, bad);
  // One direct (sleep_for in the loop body) and one transitive
  // (.Wait( in Step, reachable from Loop).
  EXPECT_EQ(Count(fs, "blocking-in-event-loop"), 2);
}

TEST(LintRules, BlockingInEventLoopIgnoresUnmarkedAndUnreachableCode) {
  // No E2GCL_LOOP_BODY marker anywhere: blocking is fine.
  const std::string unmarked = R"(
    void Worker() {
      queue_cv_.Wait(lock);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, unmarked), "blocking-in-event-loop"),
            0);
  // Marker present, but the blocking function is never called from the
  // loop.
  const std::string unreachable = R"(
    void Loop() E2GCL_LOOP_BODY {
      Drain();
    }
    void Shutdown() {
      worker_.join();
    }
  )";
  EXPECT_EQ(
      Count(LintContent(kLibPath, unreachable), "blocking-in-event-loop"), 0);
}

TEST(LintRules, BlockingInEventLoopHonorsJustifiedSuppression) {
  const std::string code = R"(
    void Loop() E2GCL_LOOP_BODY {
      // e2gcl-lint: allow(blocking-in-event-loop): poller wait is bounded
      poller_->Wait(timeout_ms, &events);
    }
  )";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(Count(fs, "blocking-in-event-loop"), 0);
  EXPECT_EQ(CountSuppressed(fs, "blocking-in-event-loop"), 1);
}

// --- Rule: unannotated-mutex -----------------------------------------

TEST(LintRules, UnannotatedMutexFlagsUnreferencedMutexAndBareCondVar) {
  const std::string bad = R"(
    class Queue {
      Mutex mu_;
      CondVar cv_;
    };
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "unannotated-mutex"), 2);
}

TEST(LintRules, UnannotatedMutexAllowsGuardingMutexAndGuardedCondVar) {
  const std::string good = R"(
    class Queue {
      mutable Mutex mu_;
      CondVar cv_ E2GCL_GUARDED_BY(mu_);
      int depth_ E2GCL_GUARDED_BY(mu_) = 0;
    };
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "unannotated-mutex"), 0);
  // The rule is library-scoped: test scaffolding may use bare mutexes.
  const std::string bare = "std::mutex mu;\n";
  EXPECT_EQ(Count(LintContent(kTestPath, bare), "unannotated-mutex"), 0);
}

// --- Rule: lock-order -------------------------------------------------

TEST(LintRules, LockOrderFlagsCycleAgainstDeclaredManifest) {
  const std::string bad = R"(
    // e2gcl-lock-order: a_mu < b_mu
    void Transfer() {
      MutexLock outer(b_mu);
      MutexLock inner(a_mu);
    }
  )";
  EXPECT_GE(Count(LintContent(kLibPath, bad), "lock-order"), 1);
}

TEST(LintRules, LockOrderFlagsReacquisitionWhileHeld) {
  const std::string self_nest = R"(
    void Recurse() {
      MutexLock outer(mu_);
      MutexLock inner(mu_);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, self_nest), "lock-order"), 1);
  // E2GCL_REQUIRES implies the capability for the whole body.
  const std::string requires_nest = R"(
    void DrainLocked() E2GCL_REQUIRES(mu_) {
      MutexLock lock(mu_);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, requires_nest), "lock-order"), 1);
}

TEST(LintRules, LockOrderAllowsConsistentAndScopedAcquisition) {
  const std::string good = R"(
    // e2gcl-lock-order: a_mu < b_mu
    void Transfer() {
      MutexLock outer(a_mu);
      MutexLock inner(b_mu);
    }
    void Sequential() {
      { MutexLock first(b_mu); }
      MutexLock second(a_mu);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "lock-order"), 0);
}

// --- Rule: hold-lock-across-callback ---------------------------------

TEST(LintRules, HoldLockAcrossCallbackFlagsCallbacksUnderLock) {
  const std::string bad = R"(
    std::function<void()> on_done;
    void Finish() {
      MutexLock lock(mu_);
      on_done();
      on_error_cb_(1);
      (*hook)(2);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, bad), "hold-lock-across-callback"), 3);
}

TEST(LintRules, HoldLockAcrossCallbackAllowsUnlockCallLockShape) {
  const std::string good = R"(
    void Finish() {
      MutexLock lock(mu_);
      ++depth_;
      lock.Unlock();
      on_done_cb_();
      lock.Lock();
      --depth_;
    }
    void NoLock() {
      on_done_cb_();
    }
    void PlainCalls() {
      MutexLock lock(mu_);
      Drain();
      queue_.push_back(1);
    }
  )";
  EXPECT_EQ(Count(LintContent(kLibPath, good), "hold-lock-across-callback"),
            0);
}

// --- Lexer: backslash-newline splicing -------------------------------

TEST(LintLexer, LineCommentContinuationExtendsTheComment) {
  // A '\' at the end of a // comment splices the next physical line
  // into the comment (phase-2 splicing), so line 2 is not code.
  const std::string code =
      "// hidden \\\n"
      "std::cout << 1;\n"
      "std::cout << 2;\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  ASSERT_EQ(Count(fs, "stdout-in-library"), 1);
  for (const Finding& f : fs) {
    if (f.rule == "stdout-in-library") {
      EXPECT_EQ(f.line, 3);
    }
  }
}

TEST(LintLexer, StringContinuationKeepsLineNumbersAligned) {
  // A spliced string literal must still advance the physical line
  // counter, so findings after it land on the right line.
  const std::string code =
      "const char* s = \"ab\\\n"
      "cd\";\n"
      "std::cout << 1;\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  ASSERT_EQ(Count(fs, "stdout-in-library"), 1);
  for (const Finding& f : fs) {
    if (f.rule == "stdout-in-library") {
      EXPECT_EQ(f.line, 3);
    }
  }
}

// --- Comments and strings never trip rules ---------------------------

TEST(LintLexer, CommentedAndQuotedCodeIsIgnored) {
  const std::string code = R"(
    // std::cout << std::rand();  (commented out)
    /* std::atomic<float> old_code; */
    const char* kDoc = "call srand(42) then std::cout";
  )";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  EXPECT_EQ(CountUnsuppressed(fs), 0);
}

// --- JSON output ------------------------------------------------------

TEST(LintJson, ReportRoundTripsAndCounts) {
  const std::string code =
      "std::cout << 1;\n"
      "std::atomic<float> f;  // e2gcl-lint: allow(atomic-float): fixture\n";
  std::vector<Finding> fs = LintContent(kLibPath, code);
  JsonValue report = FindingsToJson(fs);
  const std::string text = DumpJson(report);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("version")->AsInt(), 1);
  const JsonValue* counts = parsed.Find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->Find("error")->AsInt(), 1);
  EXPECT_EQ(counts->Find("warning")->AsInt(), 0);
  EXPECT_EQ(counts->Find("suppressed")->AsInt(), 1);
  const JsonValue* findings = parsed.Find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->items().size(), 1u);
  const JsonValue& f0 = findings->items()[0];
  EXPECT_EQ(f0.Find("rule")->AsString(), "stdout-in-library");
  EXPECT_EQ(f0.Find("severity")->AsString(), "error");
  EXPECT_EQ(f0.Find("file")->AsString(), kLibPath);
  EXPECT_EQ(f0.Find("line")->AsInt(), 1);
  const JsonValue* suppressed = parsed.Find("suppressed");
  ASSERT_NE(suppressed, nullptr);
  ASSERT_EQ(suppressed->items().size(), 1u);
  EXPECT_EQ(suppressed->items()[0].Find("justification")->AsString(),
            "fixture");
}

// --- Exit codes -------------------------------------------------------

TEST(LintExitCodes, CleanIsZeroFindingsAreOne) {
  EXPECT_EQ(ExitCode({}), 0);
  std::vector<Finding> fs =
      LintContent(kLibPath, "std::cout << 1;\n");
  EXPECT_EQ(ExitCode(fs), 1);
  // Warnings gate too: zero unsuppressed findings means zero.
  fs = LintContent(
      kLibPath,
      "const std::int64_t n = static_cast<std::int64_t>(total * frac);\n");
  ASSERT_EQ(CountUnsuppressed(fs), 1);
  EXPECT_EQ(fs[0].severity, Severity::kWarning);
  EXPECT_EQ(ExitCode(fs), 1);
}

TEST(LintExitCodes, UnreadablePathReportsError) {
  std::vector<Finding> fs;
  std::string error;
  EXPECT_FALSE(LintTree("/nonexistent-root", {}, &fs, &error));
  EXPECT_FALSE(error.empty());
}

// --- Rule registry ----------------------------------------------------

TEST(LintRegistry, AllRulesAreKnownAndDocumented) {
  EXPECT_GE(Rules().size(), 10u);
  for (const RuleInfo& r : Rules()) {
    EXPECT_TRUE(IsKnownRule(r.name));
    EXPECT_FALSE(r.summary.empty());
  }
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
}

// --- Self-check: the shipped tree is lint-clean ----------------------

TEST(LintSelfCheck, ShippedTreeHasZeroUnsuppressedFindings) {
  std::vector<Finding> fs;
  std::string error;
  ASSERT_TRUE(LintTree(E2GCL_SOURCE_DIR, {}, &fs, &error)) << error;
  for (const Finding& f : fs) {
    EXPECT_TRUE(f.suppressed) << f.file << ":" << f.line << ": [" << f.rule
                              << "] " << f.message;
    if (f.suppressed) {
      // Every shipped suppression carries its justification.
      EXPECT_FALSE(f.justification.empty()) << f.file << ":" << f.line;
    }
  }
  EXPECT_EQ(ExitCode(fs), 0);
}

}  // namespace
}  // namespace lint
}  // namespace e2gcl
