#include "io/shell.h"

#include <gtest/gtest.h>

namespace scalein {
namespace {

/// Runs a command that must succeed, returning its output.
std::string Must(Shell* shell, std::string_view line) {
  Result<std::string> out = shell->Execute(line);
  SI_CHECK_MSG(out.ok(), out.status().message().c_str());
  return *out;
}

Shell LoadedShell() {
  Shell shell;
  Must(&shell, "schema relation person(id, name, city)");
  Must(&shell, "schema relation friend(id1, id2)");
  Must(&shell, "access access friend(id1) N=50");
  Must(&shell, "access key person(id)");
  Must(&shell, "row person 1,\"ada\",\"NYC\"");
  Must(&shell, "row person 2,\"bob\",\"LA\"");
  Must(&shell, "row person 3,\"cyd\",\"NYC\"");
  Must(&shell, "row friend 1,2");
  Must(&shell, "row friend 1,3");
  return shell;
}

TEST(ShellTest, SchemaAndShow) {
  Shell shell = LoadedShell();
  std::string out = Must(&shell, "show");
  EXPECT_NE(out.find("person(id, name, city)"), std::string::npos);
  EXPECT_NE(out.find("N=50"), std::string::npos);
  EXPECT_NE(out.find("|D| = 5 tuples"), std::string::npos);
}

TEST(ShellTest, CommentsAndBlanksIgnored) {
  Shell shell;
  EXPECT_EQ(Must(&shell, "   "), "");
  EXPECT_EQ(Must(&shell, "# a comment"), "");
}

TEST(ShellTest, AnalyzeReportsControllingSets) {
  Shell shell = LoadedShell();
  std::string out = Must(
      &shell,
      "analyze Q(p, name) := exists id. friend(p, id) and person(id, name, "
      "\"NYC\")");
  EXPECT_NE(out.find("controlled by {p}"), std::string::npos);
  EXPECT_NE(out.find("fetch bound 100"), std::string::npos);  // 50 + 50*1
}

TEST(ShellTest, EvalReturnsAnswersAndFetchCount) {
  Shell shell = LoadedShell();
  std::string out = Must(
      &shell,
      "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
      "\"NYC\")");
  EXPECT_NE(out.find("\"cyd\""), std::string::npos);
  EXPECT_EQ(out.find("\"bob\""), std::string::npos);  // bob is in LA
  EXPECT_NE(out.find("base tuples fetched"), std::string::npos);
}

TEST(ShellTest, ExplainRendersOperatorTreeWithBounds) {
  Shell shell = LoadedShell();
  std::string out = Must(
      &shell,
      "explain p=1 Q(p, name) := exists id. friend(p, id) and person(id, "
      "name, \"NYC\")");
  // Header compares actual fetches against the static Theorem 4.2 bound.
  EXPECT_NE(out.find("total: fetched="), std::string::npos);
  EXPECT_NE(out.find("static_bound=100"), std::string::npos);
  EXPECT_NE(out.find("% of bound"), std::string::npos);
  // Tree has the derivation nodes, each with its own per-node bound.
  EXPECT_NE(out.find("atom(friend)"), std::string::npos);
  EXPECT_NE(out.find("atom(person)"), std::string::npos);
  EXPECT_NE(out.find("bound="), std::string::npos);
  EXPECT_NE(out.find("rows="), std::string::npos);
  // explain collects wall time; answers are still reported.
  EXPECT_NE(out.find("time="), std::string::npos);
  EXPECT_NE(out.find("(1 answers)"), std::string::npos);
}

TEST(ShellTest, StatsReflectsExecutedQueries) {
  Shell shell = LoadedShell();
  std::string before = Must(&shell, "stats");
  EXPECT_EQ(before.find("shell.queries"), std::string::npos);
  const char* eval =
      "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
      "\"NYC\")";
  Must(&shell, eval);
  Must(&shell, eval);
  std::string after = Must(&shell, "stats");
  EXPECT_NE(after.find("\"shell.queries\": 2"), std::string::npos);
  EXPECT_NE(after.find("\"shell.base_tuples_fetched\""), std::string::npos);
  EXPECT_NE(after.find("\"shell.fetched.friend\""), std::string::npos);
  EXPECT_NE(after.find("\"shell.eval_latency_ms\""), std::string::npos);
  EXPECT_NE(after.find("\"le\": "), std::string::npos);
}

TEST(ShellTest, QdsiCommand) {
  Shell shell = LoadedShell();
  std::string out = Must(&shell, "qdsi 5 Q(x) :- friend(x, y)");
  EXPECT_NE(out.find("yes"), std::string::npos);
  Result<std::string> bad = shell.Execute("qdsi abc Q(x) :- friend(x, y)");
  EXPECT_FALSE(bad.ok());
}

TEST(ShellTest, ConformanceCommand) {
  Shell shell = LoadedShell();
  std::string out = Must(&shell, "conformance");
  EXPECT_NE(out.find("conforms: yes"), std::string::npos);
  // Violate the friend cap declared as N=50? Tighter: redeclare N=1 and check.
  Must(&shell, "access access friend(id1) N=1");
  std::string bad = Must(&shell, "conformance");
  EXPECT_NE(bad.find("conforms: no"), std::string::npos);
}

TEST(ShellTest, ErrorsAreReportedNotFatal) {
  Shell shell = LoadedShell();
  EXPECT_FALSE(shell.Execute("bogus command").ok());
  EXPECT_FALSE(shell.Execute("row ghost 1,2").ok());
  EXPECT_FALSE(shell.Execute("analyze Q( :=").ok());
  EXPECT_FALSE(shell.Execute("schema relation person(dup)").ok());
  // The shell still works afterwards.
  EXPECT_NE(Must(&shell, "show").find("person"), std::string::npos);
}

// Numbers from the command line are checked: an out-of-range integer in a
// CSV row, a binding or a query literal, or a malformed access bound, is an
// InvalidArgument error — never an abort or a wrapped value.
TEST(ShellTest, OutOfRangeNumbersAreErrorsNotAborts) {
  Shell shell = LoadedShell();
  for (const char* line :
       {"row friend 99999999999999999999,1", "access access friend(id1) N=x50",
        "access access friend(id1) N=50 T=x1",
        "eval p=99999999999999999999 F(p, id) := friend(p, id)",
        "eval p=1 F(p, id) := friend(p, id) and id = 18446744073709551618"}) {
    Result<std::string> out = shell.Execute(line);
    ASSERT_FALSE(out.ok()) << line << " -> " << *out;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // Nothing was loaded or declared, and the session still answers.
  EXPECT_NE(Must(&shell, "show").find("|D| = 5 tuples"), std::string::npos);
  EXPECT_NE(Must(&shell, "eval p=1 F(p, id) := friend(p, id)")
                .find("(2 answers, 2 base tuples fetched)"),
            std::string::npos);
}

// `limit` and `qdsi` counts used to wrap modulo 2^64
// (`limit fetch=18446744073709551617` armed fetch=1).
TEST(ShellTest, OverflowingCountsFailAndLeaveStateUnchanged) {
  Shell shell = LoadedShell();
  Must(&shell, "limit fetch=5 rows=7");
  EXPECT_FALSE(shell.Execute("limit fetch=18446744073709551617").ok());
  EXPECT_FALSE(shell.Execute("limit rows=3 fetch=-1").ok());
  EXPECT_EQ(Must(&shell, "limit"), "limits: fetch=5 rows=7\n");
  EXPECT_FALSE(
      shell.Execute("qdsi 18446744073709551617 Q(x) :- friend(x, y)").ok());
}

TEST(ShellTest, SchemaFrozenAfterData) {
  Shell shell = LoadedShell();
  Result<std::string> r = shell.Execute("schema relation extra(x)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShellTest, HelpListsCommands) {
  Shell shell;
  std::string out = Must(&shell, "help");
  EXPECT_NE(out.find("analyze"), std::string::npos);
  EXPECT_NE(out.find("qdsi"), std::string::npos);
}

}  // namespace
}  // namespace scalein
