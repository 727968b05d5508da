#include "query/parser.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace scalein {
namespace {

TEST(ParserTest, SimpleCq) {
  Result<Cq> q = ParseCq("Q1(p, name) :- friend(p, id), person(id, name, \"NYC\")");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->name(), "Q1");
  EXPECT_EQ(q->head().size(), 2u);
  ASSERT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->atoms()[0].relation, "friend");
  EXPECT_EQ(q->atoms()[1].args[2], Term::Const(Value::Str("NYC")));
}

TEST(ParserTest, CqEqualityNormalization) {
  Result<Cq> q = ParseCq("Q(x) :- r(x, y), y = 3");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->atoms().size(), 1u);
  EXPECT_EQ(q->atoms()[0].args[1], Term::Const(Value::Int(3)));
}

TEST(ParserTest, CqVariableUnification) {
  Result<Cq> q = ParseCq("Q(x) :- r(x, y), s(z), y = z");
  ASSERT_TRUE(q.ok());
  // y and z collapse to one variable.
  ASSERT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->atoms()[0].args[1], q->atoms()[1].args[0]);
}

TEST(ParserTest, CqTransitiveConstantPropagation) {
  Result<Cq> q = ParseCq("Q(x) :- r(x, y), y = z, z = 5, s(z)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].args[1], Term::Const(Value::Int(5)));
  EXPECT_EQ(q->atoms()[1].args[0], Term::Const(Value::Int(5)));
}

TEST(ParserTest, CqContradictoryEqualityRejected) {
  EXPECT_FALSE(ParseCq("Q(x) :- r(x, y), y = 1, y = 2").ok());
  EXPECT_FALSE(ParseCq("Q() :- r(x), x = 1, x = y, y = 2").ok());
}

TEST(ParserTest, CqHeadConstantViaEquality) {
  Result<Cq> q = ParseCq("Q(x, y) :- r(x, y), x = 7");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->head()[0], Term::Const(Value::Int(7)));
  EXPECT_TRUE(q->head()[1].is_var());
}

TEST(ParserTest, UnsafeCqRejected) {
  Result<Cq> q = ParseCq("Q(x, w) :- r(x)");
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, BooleanCq) {
  Result<Cq> q = ParseCq("Q() :- r(x, x)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsBoolean());
  EXPECT_EQ(q->atoms()[0].args[0], q->atoms()[0].args[1]);
}

TEST(ParserTest, SchemaValidation) {
  Schema s;
  s.Relation("r", {"a", "b"});
  EXPECT_TRUE(ParseCq("Q(x) :- r(x, y)", &s).ok());
  EXPECT_FALSE(ParseCq("Q(x) :- r(x)", &s).ok());        // arity
  EXPECT_FALSE(ParseCq("Q(x) :- ghost(x)", &s).ok());    // unknown relation
  EXPECT_TRUE(ParseFoQuery("Q(x) := exists y. r(x, y)", &s).ok());
  EXPECT_FALSE(ParseFoQuery("Q(x) := exists y. r(x, y, y)", &s).ok());
}

TEST(ParserTest, Ucq) {
  Result<Ucq> u = ParseUcq(
      "Q(x) :- r(x, y)\n"
      "Q(x) :- s(x)\n");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->disjuncts().size(), 2u);
  EXPECT_EQ(u->HeadArity(), 1u);
}

TEST(ParserTest, UcqMismatchedHeadsRejected) {
  EXPECT_FALSE(ParseUcq("Q(x) :- r(x, y)\nP(x) :- s(x)\n").ok());
  EXPECT_FALSE(ParseUcq("Q(x) :- r(x, y)\nQ(x, y) :- r(x, y)\n").ok());
  EXPECT_FALSE(ParseUcq("").ok());
}

TEST(ParserTest, FoPrecedence) {
  // not binds tighter than and, and tighter than or, or tighter than implies.
  Result<Formula> f = ParseFormula("not r(x) and s(x) or t(x) implies u(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->premise().kind(), FormulaKind::kOr);
  EXPECT_EQ(f->premise().operands()[0].kind(), FormulaKind::kAnd);
  EXPECT_EQ(f->premise().operands()[0].operands()[0].kind(), FormulaKind::kNot);
}

TEST(ParserTest, QuantifierScopeExtendsRight) {
  Result<Formula> f = ParseFormula("exists x. r(x) and s(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kExists);
  EXPECT_EQ(f->body().kind(), FormulaKind::kAnd);
  EXPECT_TRUE(f->FreeVariables().empty());
}

TEST(ParserTest, MultiVariableQuantifier) {
  Result<Formula> f = ParseFormula("exists x, y. r(x, y)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->quantified().size(), 2u);
}

TEST(ParserTest, Inequality) {
  Result<Formula> f = ParseFormula("x != y");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kNot);
  EXPECT_EQ(f->child().kind(), FormulaKind::kEq);
}

TEST(ParserTest, ErrorsCarryOffsets) {
  Result<Formula> f = ParseFormula("r(x) and");
  EXPECT_FALSE(f.ok());
  Result<Cq> q = ParseCq("Q(x) :- r(x) extra");
  EXPECT_FALSE(q.ok());
  Result<Formula> g = ParseFormula("r(\"unterminated)");
  EXPECT_FALSE(g.ok());
}

TEST(ParserTest, NegativeIntegerConstants) {
  Result<Cq> q = ParseCq("Q(x) :- r(x, -5)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].args[1], Term::Const(Value::Int(-5)));
}

// An integer literal outside int64_t is a parse error; it used to wrap, so
// `id = 18446744073709551618` compared against 2.
TEST(ParserTest, IntegerLiteralOutOfRangeIsRejected) {
  Result<Cq> min = ParseCq("Q(x) :- r(x, -9223372036854775808)");
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->atoms()[0].args[1], Term::Const(Value::Int(INT64_MIN)));
  for (const char* text : {"r(x) and x = 18446744073709551618",
                           "r(x) and x = 9223372036854775808",
                           "r(x) and x = -9223372036854775809"}) {
    Result<Formula> f = ParseFormula(text);
    ASSERT_FALSE(f.ok()) << text;
    EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParserTest, KeywordAsTermRejected) {
  EXPECT_FALSE(ParseCq("Q(not) :- r(not)").ok());
}

}  // namespace
}  // namespace scalein
