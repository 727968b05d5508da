#include "io/catalog.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace scalein {
namespace {

TEST(IoTest, ParseSchemaText) {
  Result<Schema> s = ParseSchemaText(
      "# catalog\n"
      "relation person(id, name, city)\n"
      "\n"
      "relation friend(id1, id2)   # edges\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(s->HasRelation("person"));
  EXPECT_EQ(s->FindRelation("friend")->arity(), 2u);
}

TEST(IoTest, ParseSchemaRejectsGarbage) {
  EXPECT_FALSE(ParseSchemaText("table person(id)").ok());
  EXPECT_FALSE(ParseSchemaText("relation person").ok());
  EXPECT_FALSE(ParseSchemaText("relation person()").ok());
  EXPECT_FALSE(
      ParseSchemaText("relation r(a)\nrelation r(b)\n").ok());  // duplicate
}

TEST(IoTest, ParseAccessSchemaText) {
  Result<Schema> s = ParseSchemaText(
      "relation person(id, name, city)\n"
      "relation friend(id1, id2)\n"
      "relation visit(id, rid, yy, mm, dd)\n");
  ASSERT_TRUE(s.ok());
  Result<AccessSchema> a = ParseAccessSchemaText(
      "access friend(id1) N=5000 T=2\n"
      "key person(id)\n"
      "access visit(yy -> yy, mm, dd) N=366\n"
      "fd visit: id, yy, mm, dd -> rid\n",
      *s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_EQ(a->statements().size(), 4u);
  EXPECT_EQ(a->statements()[0].max_tuples, 5000u);
  EXPECT_DOUBLE_EQ(a->statements()[0].retrieval_time, 2.0);
  EXPECT_EQ(a->statements()[1].max_tuples, 1u);
  EXPECT_FALSE(a->statements()[2].is_plain());
  EXPECT_EQ(a->statements()[2].key_attrs, (std::vector<std::string>{"yy"}));
  EXPECT_EQ(a->statements()[3].max_tuples, 1u);  // fd
}

TEST(IoTest, AccessSchemaValidatedAgainstSchema) {
  Result<Schema> s = ParseSchemaText("relation r(a, b)\n");
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(ParseAccessSchemaText("access ghost(a) N=1\n", *s).ok());
  EXPECT_FALSE(ParseAccessSchemaText("access r(zz) N=1\n", *s).ok());
  EXPECT_FALSE(ParseAccessSchemaText("index r(a)\n", *s).ok());
}

TEST(IoTest, CsvValueTyping) {
  EXPECT_EQ(*ParseCsvValue("42"), Value::Int(42));
  EXPECT_EQ(*ParseCsvValue("-7"), Value::Int(-7));
  EXPECT_EQ(*ParseCsvValue("NYC"), Value::Str("NYC"));
  EXPECT_EQ(*ParseCsvValue("\"42\""), Value::Str("42"));  // quoted stays string
  EXPECT_EQ(*ParseCsvValue("  hello "), Value::Str("hello"));
  EXPECT_EQ(*ParseCsvValue("12ab"), Value::Str("12ab"));
  EXPECT_EQ(*ParseCsvValue("-"), Value::Str("-"));
}

// An integer field outside int64_t is an error, not an abort, a wrap, or a
// silent retyping as a string; the int64_t extremes still parse.
TEST(IoTest, CsvIntegerOutOfRangeIsAnError) {
  EXPECT_EQ(*ParseCsvValue("-9223372036854775808"), Value::Int(INT64_MIN));
  EXPECT_EQ(*ParseCsvValue("9223372036854775807"), Value::Int(INT64_MAX));
  for (const char* field : {"99999999999999999999", "9223372036854775808",
                            "-9223372036854775809"}) {
    Result<Value> v = ParseCsvValue(field);
    ASSERT_FALSE(v.ok()) << field;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << field;
  }
  Result<Schema> s = ParseSchemaText("relation friend(id1, id2)\n");
  ASSERT_TRUE(s.ok());
  Database db(*s);
  Status load = LoadRelationCsv(&db, "friend", "99999999999999999999,1\n");
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load.ToString();
  EXPECT_EQ(db.relation("friend").size(), 0u);
}

// N= and T= are checked numbers: malformed, negative or out-of-range values
// are InvalidArgument instead of a std::stoull/std::stod exception.
TEST(IoTest, AccessBoundOptionsAreCheckedNumbers) {
  Result<Schema> s = ParseSchemaText("relation friend(id1, id2)\n");
  ASSERT_TRUE(s.ok());
  for (const char* line :
       {"access friend(id1) N=x50\n", "access friend(id1) N=-1\n",
        "access friend(id1) N=18446744073709551616\n",
        "access friend(id1) N=50 T=x1\n", "access friend(id1) N=50 T=1e999\n",
        "access friend(id1) N=50 T=inf\n", "access friend(id1) N=5abc\n"}) {
    Result<AccessSchema> a = ParseAccessSchemaText(line, *s);
    ASSERT_FALSE(a.ok()) << line;
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument) << line;
  }
  Result<AccessSchema> a = ParseAccessSchemaText(
      "access friend(id1) N=18446744073709551615 T=0.5\n", *s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->statements()[0].max_tuples, UINT64_MAX);
  EXPECT_DOUBLE_EQ(a->statements()[0].retrieval_time, 0.5);
}

TEST(IoTest, LoadRelationCsvRoundTrip) {
  Result<Schema> s = ParseSchemaText("relation person(id, name, city)\n");
  ASSERT_TRUE(s.ok());
  Database db(*s);
  Status load = LoadRelationCsv(&db, "person",
                                "1,\"ada\",\"NYC\"\n"
                                "2,\"bob\",\"LA\"\n"
                                "# comment line\n"
                                "3,\"cyd\",\"NYC\"\n");
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_EQ(db.relation("person").size(), 3u);
  EXPECT_TRUE(db.relation("person").Contains(
      Tuple{Value::Int(2), Value::Str("bob"), Value::Str("LA")}));

  // Render and re-load into a fresh database: identical content.
  std::string csv = RelationToCsv(db.relation("person"));
  Database db2(*s);
  ASSERT_TRUE(LoadRelationCsv(&db2, "person", csv).ok());
  EXPECT_TRUE(db.Equals(db2));
}

TEST(IoTest, LoadRejectsArityMismatch) {
  Result<Schema> s = ParseSchemaText("relation r(a, b)\n");
  ASSERT_TRUE(s.ok());
  Database db(*s);
  EXPECT_FALSE(LoadRelationCsv(&db, "r", "1,2,3\n").ok());
  EXPECT_FALSE(LoadRelationCsv(&db, "ghost", "1,2\n").ok());
}

TEST(IoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/scalein_io_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "relation r(a, b)\n").ok());
  Result<Schema> s = LoadSchemaFile(path);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->HasRelation("r"));
  EXPECT_FALSE(LoadSchemaFile(path + ".missing").ok());
}

}  // namespace
}  // namespace scalein
