// Tests for the textual schema / query / CC language.
#include <gtest/gtest.h>

#include "query/parser.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;

TEST(ParserTest, SchemaWithDomains) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema Person(name: sym, age: int, sex: {"M", "F"}).
  )"));
  const RelationSchema* person = p.schema.Find("Person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->arity(), 3u);
  EXPECT_FALSE(person->attribute(0).domain.is_finite());
  EXPECT_TRUE(person->attribute(2).domain.is_finite());
  EXPECT_EQ(person->attribute(2).domain.values().size(), 2u);
}

TEST(ParserTest, InstanceBlock) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int, b: int).
    instance db {
      E(1, 2).
      E(2, 3).
    }
  )"));
  ASSERT_EQ(p.instances.count("db"), 1u);
  EXPECT_EQ(p.instances.at("db").at("E").size(), 2u);
  EXPECT_TRUE(p.instances.at("db").at("E").Contains({I(1), I(2)}));
}

TEST(ParserTest, CqQueryWithBuiltins) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int, b: int).
    instance db { E(1, 2). E(2, 2). }
    query Loop(x) :- E(x, y), x = y.
  )"));
  ASSERT_EQ(p.queries.count("Loop"), 1u);
  const Query& q = p.queries.at("Loop");
  EXPECT_EQ(q.language(), QueryLanguage::kCQ);
  ASSERT_OK_AND_ASSIGN(out, q.Eval(p.instances.at("db")));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({I(2)}));
}

TEST(ParserTest, RepeatedQueryNameBuildsUcq) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int, b: int).
    query Q(x) :- E(x, y).
    query Q(x) :- E(y, x).
  )"));
  EXPECT_EQ(p.queries.at("Q").language(), QueryLanguage::kUCQ);
  EXPECT_EQ(p.queries.at("Q").ucq().disjuncts().size(), 2u);
}

TEST(ParserTest, StringConstantsAndComments) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    # patients schema
    schema V(nhs: sym, city: sym).
    instance db { V("915", "EDI"). }
    query Q(n) :- V(n, c), c = "EDI".  # Edinburgh only
  )"));
  ASSERT_OK_AND_ASSIGN(out, p.queries.at("Q").Eval(p.instances.at("db")));
  EXPECT_TRUE(out.Contains({S("915")}));
}

TEST(ParserTest, ContainmentConstraint) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema V(nhs: sym, city: sym).
    master Pm(nhs: sym, zip: sym).
    minstance dm { Pm("915", "EH1"). }
    cc C1(n) :- V(n, c), c = "EDI" <= Pm[nhs].
  )"));
  ASSERT_EQ(p.ccs.size(), 1u);
  Instance db(p.schema);
  db.AddTuple("V", {S("915"), S("EDI")});
  ASSERT_OK_AND_ASSIGN(sat,
                       p.ccs[0].Satisfied(db, p.minstances.at("dm")));
  EXPECT_TRUE(sat);
  db.AddTuple("V", {S("999"), S("EDI")});
  ASSERT_OK_AND_ASSIGN(sat2,
                       p.ccs[0].Satisfied(db, p.minstances.at("dm")));
  EXPECT_FALSE(sat2);
}

TEST(ParserTest, CcMasterColumnsByIndex) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema V(nhs: sym, city: sym).
    master Pm(nhs: sym, zip: sym).
    cc C1(n) :- V(n, c) <= Pm[0].
  )"));
  EXPECT_EQ(p.ccs[0].master_cols(), (std::vector<int>{0}));
}

TEST(ParserTest, FoQueryWithQuantifiers) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int, b: int).
    instance db { E(1, 2). E(2, 3). }
    fo Sink(x) := (exists y (E(y, x))) & !(exists z (E(x, z))).
  )"));
  const Query& q = p.queries.at("Sink");
  EXPECT_EQ(q.language(), QueryLanguage::kFO);
  ASSERT_OK_AND_ASSIGN(out, q.Eval(p.instances.at("db")));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({I(3)}));
}

TEST(ParserTest, PositiveFoClassifiedAsEfoPlus) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int, b: int).
    fo Q(x) := exists y (E(x, y) | E(y, x)).
  )"));
  EXPECT_EQ(p.queries.at("Q").language(), QueryLanguage::kEFOPlus);
}

TEST(ParserTest, FpProgram) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int, b: int).
    instance db { E(1, 2). E(2, 3). E(3, 4). }
    fp TC {
      T(x, y) :- E(x, y).
      T(x, z) :- T(x, y), E(y, z).
      output T.
    }
  )"));
  const Query& q = p.queries.at("TC");
  EXPECT_EQ(q.language(), QueryLanguage::kFP);
  ASSERT_OK_AND_ASSIGN(out, q.Eval(p.instances.at("db")));
  EXPECT_EQ(out.size(), 6u);
}

TEST(ParserTest, ErrorsCarryLocation) {
  Result<ParsedProgram> r = ParseProgram("schema E(a int).");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, UnterminatedStringRejected) {
  Result<ParsedProgram> r =
      ParseProgram("schema E(a: sym). instance d { E(\"x). }");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, UnknownRelationInInstanceRejected) {
  Result<ParsedProgram> r = ParseProgram(R"(
    schema E(a: int).
    instance db { F(1). }
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, ArityMismatchInInstanceRejected) {
  Result<ParsedProgram> r = ParseProgram(R"(
    schema E(a: int, b: int).
    instance db { E(1). }
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, BlocksHoldRelationsDeclaredAfterThem) {
  // Each block is an instance of the whole schema, as the deciders require
  // of T and Dm, whatever the order of the declarations.
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int).
    master M(a: int).
    instance db { E(1). }
    minstance dm { M(1). }
    schema F(b: {"x", "y"}).
    master N(b: sym).
  )"));
  const Instance& db = p.instances.at("db");
  ASSERT_EQ(db.relations().size(), 2u);
  EXPECT_EQ(db.schema().relations()[1].attribute(0).domain,
            p.schema.relations()[1].attribute(0).domain);
  EXPECT_TRUE(db.at("E").Contains({I(1)}));
  EXPECT_TRUE(db.at("F").empty());
  const Instance& dm = p.minstances.at("dm");
  ASSERT_EQ(dm.relations().size(), 2u);
  EXPECT_TRUE(dm.at("M").Contains({I(1)}));
  EXPECT_TRUE(dm.at("N").empty());
}

TEST(ParserTest, ArityRedeclaredAfterABlockRejected) {
  Result<ParsedProgram> r = ParseProgram(R"(
    schema E(a: int).
    instance db { E(1). }
    schema E(a: int, b: int).
  )");
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, NegativeNumbers) {
  ASSERT_OK_AND_ASSIGN(p, ParseProgram(R"(
    schema E(a: int).
    instance db { E(-5). }
  )"));
  EXPECT_TRUE(p.instances.at("db").at("E").Contains({I(-5)}));
}

}  // namespace
}  // namespace relcomp
