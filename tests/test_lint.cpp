// Unit tests for the dshuf_lint rule engine (tools/dshuf_lint).
//
// Every "bad" snippet below lives inside a string literal, which the
// linter's own scrubber blanks out — so scanning this test file with
// dshuf_lint stays clean while the rules are still exercised end to end.
#include "lint_rules.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dshuf::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> r;
  for (const auto& f : fs) r.push_back(f.rule);
  std::sort(r.begin(), r.end());
  return r;
}

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// ---------------------------------------------------------------- scrub

TEST(LintScrub, BlanksLineAndBlockComments) {
  const std::string in = "int a; // srand here\nint b; /* rand() */ int c;\n";
  const std::string out = scrub(in);
  EXPECT_EQ(out.find("srand"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int c;"), std::string::npos);
  // Newlines survive so findings keep their line numbers.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
}

TEST(LintScrub, BlanksStringAndCharLiterals) {
  const std::string in =
      "auto s = \"std::rand()\"; char c = '\\\"'; auto t = \"x\";\n";
  const std::string out = scrub(in);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("auto s ="), std::string::npos);
  EXPECT_NE(out.find("auto t ="), std::string::npos);
}

TEST(LintScrub, BlanksRawStrings) {
  const std::string in = "auto r = R\"(srand(1); /* still a string */)\";\n";
  const std::string out = scrub(in);
  EXPECT_EQ(out.find("srand"), std::string::npos);
}

TEST(LintScrub, MultiLineBlockCommentKeepsNewlines) {
  const std::string in = "/* line one\n   std::random_device rd;\n*/ int x;\n";
  const std::string out = scrub(in);
  EXPECT_EQ(out.find("random_device"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find("int x;"), std::string::npos);
}

// -------------------------------------------------------- classify_path

TEST(LintClassify, DeterminismCriticalNamespaces) {
  EXPECT_TRUE(classify_path("src/shuffle/mixing.cpp").determinism_critical);
  EXPECT_TRUE(classify_path("src/comm/comm.cpp").determinism_critical);
  EXPECT_TRUE(classify_path("src/sim/events.cpp").determinism_critical);
  EXPECT_FALSE(classify_path("src/data/batch_loader.cpp")
                   .determinism_critical);
  EXPECT_FALSE(classify_path("tests/test_comm.cpp").determinism_critical);
}

TEST(LintClassify, SrcTreeAndLogModule) {
  EXPECT_TRUE(classify_path("src/shuffle/mixing.cpp").src_tree);
  EXPECT_TRUE(classify_path("/root/repo/src/util/argparse.cpp").src_tree);
  EXPECT_FALSE(classify_path("bench/bench_fig09.cpp").src_tree);
  EXPECT_FALSE(classify_path("tests/test_comm.cpp").src_tree);
  EXPECT_TRUE(classify_path("src/util/log.cpp").log_module);
  EXPECT_FALSE(classify_path("src/util/log.hpp").log_module);
}

TEST(LintClassify, RngModuleAndHeaders) {
  EXPECT_TRUE(classify_path("src/util/rng.hpp").rng_module);
  EXPECT_TRUE(classify_path("src/util/rng.cpp").rng_module);
  EXPECT_FALSE(classify_path("src/util/log.cpp").rng_module);
  EXPECT_TRUE(classify_path("src/util/rng.hpp").is_header);
  EXPECT_FALSE(classify_path("src/util/rng.cpp").is_header);
}

// -------------------------------------------------------- banned-random

TEST(LintRandom, FlagsRandSrandAndRandomDevice) {
  const std::string code =
      "#include <cstdlib>\n"
      "int f() {\n"
      "  srand(42);\n"
      "  std::random_device rd;\n"
      "  return std::rand();\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/data/gen.cpp"), code);
  int banned = 0;
  for (const auto& f : fs) {
    if (f.rule == "banned-random") ++banned;
  }
  EXPECT_EQ(banned, 3);
}

TEST(LintRandom, FlagsTimeBasedSeeding) {
  const auto fs = scan_file(classify_path("src/data/gen.cpp"),
                            "void f() { seed_with(time(nullptr)); }\n");
  EXPECT_TRUE(has_rule(fs, "banned-random"));
}

TEST(LintRandom, RngModuleIsExempt) {
  const std::string code =
      "#pragma once\n"
      "// the one module allowed to name entropy primitives\n"
      "inline unsigned hw() { std::random_device rd; return rd(); }\n";
  const auto fs = scan_file(classify_path("src/util/rng.hpp"), code);
  EXPECT_FALSE(has_rule(fs, "banned-random"));
}

TEST(LintRandom, IdentifiersContainingRandPass) {
  // `rand` must match as a whole word: operand/random_shuffle_plan etc.
  // are fine, as is a member called rand_ or a function srandomize().
  const auto fs = scan_file(
      classify_path("src/data/gen.cpp"),
      "int operand(int x) { return x; }\n"
      "void srandomize(int*) {}\n"
      "int use(int brand) { return operand(brand); }\n");
  EXPECT_FALSE(has_rule(fs, "banned-random"));
}

// -------------------------------------------------- unordered-iteration

TEST(LintUnordered, FlagsRangeForInCriticalNamespace) {
  const std::string code =
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) { use(kv); }\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/plan.cpp"), code);
  EXPECT_TRUE(has_rule(fs, "unordered-iteration"));
}

TEST(LintUnordered, NonCriticalNamespaceIsNotChecked) {
  const std::string code =
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) { use(kv); }\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/data/cache.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "unordered-iteration"));
}

TEST(LintUnordered, JustifiedAnnotationSuppresses) {
  const std::string code =
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  // lint:ordered-ok values are summed, order cannot matter\n"
      "  for (const auto& kv : m) { use(kv); }\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/comm/stats.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "unordered-iteration"));
  EXPECT_FALSE(has_rule(fs, "ordered-ok-justification"));
}

TEST(LintUnordered, BareAnnotationDemandsJustification) {
  const std::string code =
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) { use(kv); }  // lint:ordered-ok\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/comm/stats.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "unordered-iteration"));
  EXPECT_TRUE(has_rule(fs, "ordered-ok-justification"));
}

TEST(LintUnordered, OrderedMapIterationPasses) {
  const std::string code =
      "#include <map>\n"
      "void f(const std::map<int, int>& m) {\n"
      "  for (const auto& kv : m) { use(kv); }\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/plan.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "unordered-iteration"));
}

TEST(LintUnordered, ExplicitBeginWalkIsFlagged) {
  const std::string code =
      "void f(const std::unordered_set<int>& s) {\n"
      "  for (auto it = s.begin(); it != s.end(); ++it) { use(*it); }\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/sim/state.cpp"), code);
  EXPECT_TRUE(has_rule(fs, "unordered-iteration"));
}

// ------------------------------------------------------ raw-tag-literal

TEST(LintTags, FlagsLiteralTagOnIsendAndIrecv) {
  const std::string code =
      "void f(Communicator& c) {\n"
      "  c.isend(1, 7, payload());\n"
      "  c.irecv(0, 7);\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  int raw = 0;
  for (const auto& f : fs) {
    if (f.rule == "raw-tag-literal") ++raw;
  }
  EXPECT_EQ(raw, 2);
}

TEST(LintTags, TagHelperExpressionsPass) {
  const std::string code =
      "void f(Communicator& c, std::size_t base, std::size_t q) {\n"
      "  c.isend(1, frame_data_tag(base, q, 0), payload());\n"
      "  c.irecv(0, frame_ack_tag(base, q, 1));\n"
      "  c.irecv(kAnySource, kAnyTag);\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-tag-literal"));
}

TEST(LintTags, LineAnnotationSuppressesWithJustification) {
  const std::string code =
      "void f(Communicator& c) {\n"
      "  c.isend(1, 7, payload());  // lint:tag-ok control channel probe\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-tag-literal"));
}

TEST(LintTags, FileAnnotationSuppressesWholeFile) {
  const std::string code =
      "// lint:tag-ok-file: transport-level test names its own channels\n"
      "void f(Communicator& c) {\n"
      "  c.isend(1, 7, payload());\n"
      "  c.irecv(0, 9);\n"
      "}\n";
  const auto fs = scan_file(classify_path("tests/test_x.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-tag-literal"));
}

TEST(LintTags, BareFileAnnotationDemandsJustification) {
  const std::string code =
      "// lint:tag-ok-file\n"
      "void f(Communicator& c) { c.isend(1, 7, payload()); }\n";
  const auto fs = scan_file(classify_path("tests/test_x.cpp"), code);
  EXPECT_TRUE(has_rule(fs, "tag-ok-justification"));
}

TEST(LintTags, DeclarationsAreNotCalls) {
  // A prototype's second parameter is `int tag`, which references "tag" —
  // the rule must not fire on declarations or the comm API itself.
  const std::string code =
      "Request isend(int dest, int tag, std::vector<std::byte> payload);\n"
      "Request irecv(int source, int tag);\n";
  const auto fs = scan_file(classify_path("src/comm/comm.hpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-tag-literal"));
}

// ---------------------------------------------------------- raw-stdout

TEST(LintStdout, FlagsCoutAndCerrInSrc) {
  const std::string code =
      "#include <iostream>\n"
      "void f(int rank) {\n"
      "  std::cout << rank << '\\n';\n"
      "  std::cerr << \"bad\\n\";\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  int raw = 0;
  for (const auto& f : fs) {
    if (f.rule == "raw-stdout") ++raw;
  }
  EXPECT_EQ(raw, 2);
}

TEST(LintStdout, BenchesAndTestsAreExempt) {
  const std::string code = "void f() { std::cout << \"table\\n\"; }\n";
  EXPECT_FALSE(has_rule(scan_file(classify_path("bench/bench_x.cpp"), code),
                        "raw-stdout"));
  EXPECT_FALSE(has_rule(scan_file(classify_path("tests/test_x.cpp"), code),
                        "raw-stdout"));
}

TEST(LintStdout, LogModuleIsExempt) {
  const std::string code =
      "void emit() { (true ? std::cerr : std::clog) << \"line\\n\"; }\n";
  const auto fs = scan_file(classify_path("src/util/log.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-stdout"));
}

TEST(LintStdout, JustifiedAnnotationSuppresses) {
  const std::string code =
      "// lint:stdout-ok --help output is CLI text, not a log line\n"
      "void f() { std::cout << \"usage\\n\"; }\n";
  const auto fs = scan_file(classify_path("src/util/argparse.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-stdout"));
  EXPECT_FALSE(has_rule(fs, "stdout-ok-justification"));
}

TEST(LintStdout, BareAnnotationDemandsJustification) {
  const std::string code =
      "void f() { std::cout << \"usage\\n\"; }  // lint:stdout-ok\n";
  const auto fs = scan_file(classify_path("src/util/argparse.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-stdout"));
  EXPECT_TRUE(has_rule(fs, "stdout-ok-justification"));
}

// ------------------------------------------------------------ raw-mmap

TEST(LintMmap, FlagsMmapFamilyCallsOutsideIo) {
  const std::string code =
      "#include <sys/mman.h>\n"
      "void f(int fd, unsigned long len) {\n"
      "  void* b = ::mmap(nullptr, len, 1, 1, fd, 0);\n"
      "  msync(b, len, 4);\n"
      "  munmap(b, len);\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  int raw = 0;
  for (const auto& f : fs) {
    if (f.rule == "raw-mmap") ++raw;
  }
  EXPECT_EQ(raw, 3);
}

TEST(LintMmap, IoModuleIsExempt) {
  const std::string code =
      "void* f(unsigned long len) { return ::mmap(nullptr, len, 1, 1, -1, 0);"
      " }\n";
  const auto fs = scan_file(classify_path("src/io/mmap_store.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-mmap"));
  EXPECT_TRUE(classify_path("src/io/mmap_store.cpp").io_module);
  EXPECT_FALSE(classify_path("src/shuffle/exchange.cpp").io_module);
}

TEST(LintMmap, CallSitesOnlyNeverIdentifiers) {
  // A member named mmap_, a declaration mentioning munmap in a comment or
  // string, or the bare word without a call never match.
  const std::string code =
      "struct S { void* mmap_ = nullptr; };\n"
      "int mmap;  // the identifier alone is not a call\n"
      "auto s = \"call mmap() here\";\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-mmap"));
}

TEST(LintMmap, JustifiedAnnotationSuppresses) {
  const std::string code =
      "// lint:mmap-ok scratch arena for a fuzz target, never reclaimed\n"
      "void* f(unsigned long n) { return ::mmap(nullptr, n, 1, 1, -1, 0); }\n";
  const auto fs = scan_file(classify_path("src/util/arena.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-mmap"));
  EXPECT_FALSE(has_rule(fs, "mmap-ok-justification"));
}

TEST(LintMmap, BareAnnotationDemandsJustification) {
  const std::string code =
      "void f(void* b, unsigned long n) { munmap(b, n); }  // lint:mmap-ok\n";
  const auto fs = scan_file(classify_path("src/util/arena.cpp"), code);
  EXPECT_FALSE(has_rule(fs, "raw-mmap"));
  EXPECT_TRUE(has_rule(fs, "mmap-ok-justification"));
}

TEST(LintStdout, IdentifiersContainingCoutPass) {
  // `cout`/`cerr` match as whole words only: scout/concerrns etc. pass.
  const auto fs = scan_file(classify_path("src/data/x.cpp"),
                            "int scout_count(int cerrtainly) {\n"
                            "  return cerrtainly;\n"
                            "}\n");
  EXPECT_FALSE(has_rule(fs, "raw-stdout"));
}

// ----------------------------------------------------------- metric-name

TEST(LintMetricName, FlagsNamesOutsideDottedLowercase) {
  const std::string code =
      "void f(int n) {\n"
      "  DSHUF_COUNTER(\"Exchange.Bytes\").add(1);\n"
      "  DSHUF_GAUGE(\"task workers\").set(n);\n"
      "  DSHUF_HISTOGRAM_US(\"exchange/fence\").observe(1);\n"
      "}\n";
  const auto fs = scan_file(classify_path("src/shuffle/x.cpp"), code);
  int bad = 0;
  for (const auto& f : fs) {
    if (f.rule == "metric-name") ++bad;
  }
  EXPECT_EQ(bad, 3);
}

TEST(LintMetricName, AcceptsDottedLowercaseEverywhere) {
  const std::string code =
      "void f() {\n"
      "  DSHUF_COUNTER(\"exchange.bytes_sent\").add(1);\n"
      "  DSHUF_GAUGE(\"task.workers\").set(2);\n"
      "  DSHUF_HISTOGRAM_US(\"exchange.fence_wait_us\").observe(7);\n"
      "}\n";
  EXPECT_FALSE(has_rule(scan_file(classify_path("src/comm/x.cpp"), code),
                        "metric-name"));
  // The rule follows the macros into benches and tests too — names are
  // global registry keys no matter who registers them.
  EXPECT_TRUE(has_rule(
      scan_file(classify_path("tests/test_x.cpp"),
                "void g() { DSHUF_COUNTER(\"Bad.Name\").add(1); }\n"),
      "metric-name"));
}

TEST(LintMetricName, TwoMacrosOnOneLineEachGetTheirOwnLiteral) {
  const std::string code =
      "void f() { DSHUF_COUNTER(\"ok.name\").add(1); "
      "DSHUF_COUNTER(\"BAD\").add(1); }\n";
  const auto fs = scan_file(classify_path("src/obs/x.cpp"), code);
  int bad = 0;
  for (const auto& f : fs) {
    if (f.rule == "metric-name") ++bad;
  }
  EXPECT_EQ(bad, 1);
}

TEST(LintMetricName, ComputedNamesAndCommentsAreOutOfScope) {
  // An identifier argument (the registry helper, a macro definition) and
  // macro names inside comments/strings never trip the rule.
  const std::string code =
      "#define DSHUF_COUNTER(name) registry().counter(name)\n"
      "// DSHUF_COUNTER(\"Not.Code\") in prose\n"
      "void f(const char* n) { DSHUF_COUNTER(n).add(1); }\n";
  EXPECT_FALSE(has_rule(scan_file(classify_path("src/obs/x.cpp"), code),
                        "metric-name"));
}

// ------------------------------------------------------ include hygiene

TEST(LintHygiene, HeaderWithoutPragmaOnce) {
  const std::string code =
      "#ifndef FOO_H\n#define FOO_H\nint x;\n#endif\n";
  const auto fs = scan_file(classify_path("src/util/foo.hpp"), code);
  EXPECT_TRUE(has_rule(fs, "pragma-once"));
}

TEST(LintHygiene, LeadingCommentBeforePragmaOnceIsFine) {
  const std::string code = "// docs first\n#pragma once\nint x;\n";
  const auto fs = scan_file(classify_path("src/util/foo.hpp"), code);
  EXPECT_FALSE(has_rule(fs, "pragma-once"));
}

TEST(LintHygiene, SourceFilesNeedNoPragmaOnce) {
  const auto fs =
      scan_file(classify_path("src/util/foo.cpp"), "int x = 1;\n");
  EXPECT_FALSE(has_rule(fs, "pragma-once"));
}

TEST(LintHygiene, RelativeIncludeAndUsingNamespaceStd) {
  const std::string code =
      "#pragma once\n"
      "#include \"../util/error.hpp\"\n"
      "using namespace std;\n";
  const auto fs = scan_file(classify_path("src/util/foo.hpp"), code);
  EXPECT_TRUE(has_rule(fs, "relative-include"));
  EXPECT_TRUE(has_rule(fs, "using-namespace-std"));
}

TEST(LintHygiene, RootedIncludePasses) {
  const std::string code =
      "#pragma once\n#include \"util/error.hpp\"\n#include <vector>\n";
  const auto fs = scan_file(classify_path("src/util/foo.hpp"), code);
  EXPECT_TRUE(fs.empty()) << rules_of(fs).size() << " findings";
}

// ----------------------------------------------------------- plumbing

TEST(LintPlumbing, FindingsCarryOneBasedLines) {
  const std::string code = "int a;\nint b = std::rand();\n";
  const auto fs = scan_file(classify_path("src/data/x.cpp"), code);
  ASSERT_EQ(fs.size(), 1U);
  EXPECT_EQ(fs[0].line, 2U);
  EXPECT_EQ(fs[0].rule, "banned-random");
  EXPECT_EQ(fs[0].file, "src/data/x.cpp");
}

TEST(LintPlumbing, CleanFileYieldsNoFindings) {
  const std::string code =
      "#include \"util/rng.hpp\"\n"
      "int draw(dshuf::Rng& rng) { return static_cast<int>(rng.next()); }\n";
  const auto fs = scan_file(classify_path("src/data/x.cpp"), code);
  EXPECT_TRUE(fs.empty());
}

}  // namespace
}  // namespace dshuf::lint
