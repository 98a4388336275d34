// Unit tests for the data model: values, domains, schemas, relations,
// instances.
#include <gtest/gtest.h>

#include "data/instance.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_FALSE(v.is_sym());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, SymRoundTrip) {
  Value v = Value::Sym("Edinburgh");
  EXPECT_TRUE(v.is_sym());
  EXPECT_EQ(v.sym_name(), "Edinburgh");
  EXPECT_EQ(v.ToString(), "Edinburgh");
}

TEST(ValueTest, InterningGivesEquality) {
  EXPECT_EQ(Value::Sym("abc"), Value::Sym("abc"));
  EXPECT_NE(Value::Sym("abc"), Value::Sym("abd"));
}

TEST(ValueTest, IntsAndSymsDiffer) {
  EXPECT_NE(Value::Int(0), Value::Sym("0"));
}

TEST(ValueTest, TotalOrderIsStrict) {
  std::vector<Value> vals = {I(3), S("b"), I(1), S("a"), I(2)};
  std::sort(vals.begin(), vals.end());
  for (size_t i = 1; i < vals.size(); ++i) {
    EXPECT_TRUE(vals[i - 1] < vals[i] || vals[i - 1] == vals[i]);
  }
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Sym("x").Hash(), Value::Sym("x").Hash());
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
}

TEST(DomainTest, InfiniteContainsEverything) {
  Domain d = Domain::Infinite();
  EXPECT_FALSE(d.is_finite());
  EXPECT_TRUE(d.Contains(I(123)));
  EXPECT_TRUE(d.Contains(S("anything")));
}

TEST(DomainTest, FiniteMembership) {
  Domain d = Domain::Finite({I(0), I(1)});
  EXPECT_TRUE(d.is_finite());
  EXPECT_TRUE(d.Contains(I(0)));
  EXPECT_FALSE(d.Contains(I(2)));
  EXPECT_EQ(d.values().size(), 2u);
}

TEST(DomainTest, FiniteDeduplicatesAndSorts) {
  Domain d = Domain::Finite({I(3), I(1), I(3), I(2)});
  ASSERT_EQ(d.values().size(), 3u);
  EXPECT_EQ(d.values()[0], I(1));
  EXPECT_EQ(d.values()[2], I(3));
}

TEST(DomainTest, BooleanAndIntRange) {
  EXPECT_EQ(Domain::Boolean().values().size(), 2u);
  Domain r = Domain::IntRange(5, 8);
  EXPECT_EQ(r.values().size(), 4u);
  EXPECT_TRUE(r.Contains(I(6)));
  EXPECT_FALSE(r.Contains(I(9)));
}

TEST(SchemaTest, AttributeIndexLookup) {
  RelationSchema rel("R", {Attribute{"a"}, Attribute{"b"}, Attribute{"c"}});
  EXPECT_EQ(rel.AttributeIndex("b"), 1);
  EXPECT_EQ(rel.AttributeIndex("zz"), -1);
  EXPECT_EQ(rel.arity(), 3u);
}

TEST(SchemaTest, AnonymousSchema) {
  RelationSchema rel = RelationSchema::Anonymous("out", 4);
  EXPECT_EQ(rel.arity(), 4u);
  EXPECT_EQ(rel.attribute(2).name, "a2");
}

TEST(SchemaTest, DatabaseSchemaFindAndReplace) {
  DatabaseSchema schema;
  schema.AddRelation(RelationSchema("R", {Attribute{"a"}}));
  schema.AddRelation(RelationSchema("S", {Attribute{"x"}, Attribute{"y"}}));
  EXPECT_TRUE(schema.Contains("R"));
  EXPECT_FALSE(schema.Contains("T"));
  EXPECT_EQ(schema.Find("S")->arity(), 2u);
  // Replacement keeps a single entry.
  schema.AddRelation(RelationSchema("R", {Attribute{"a"}, Attribute{"b"}}));
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.Find("R")->arity(), 2u);
}

TEST(SchemaTest, GetReportsMissing) {
  DatabaseSchema schema;
  Result<RelationSchema> r = schema.Get("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(RelationSchema::Anonymous("R", 2));
  EXPECT_TRUE(r.Insert({I(1), I(2)}));
  EXPECT_FALSE(r.Insert({I(1), I(2)}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, RowsStaySorted) {
  Relation r(RelationSchema::Anonymous("R", 1));
  r.Insert({I(3)});
  r.Insert({I(1)});
  r.Insert({I(2)});
  EXPECT_EQ(r.rows()[0][0], I(1));
  EXPECT_EQ(r.rows()[2][0], I(3));
}

TEST(RelationTest, ContainsAndErase) {
  Relation r(RelationSchema::Anonymous("R", 1));
  r.Insert({I(5)});
  EXPECT_TRUE(r.Contains({I(5)}));
  EXPECT_TRUE(r.Erase({I(5)}));
  EXPECT_FALSE(r.Contains({I(5)}));
  EXPECT_FALSE(r.Erase({I(5)}));
}

TEST(RelationTest, SubsetTests) {
  Relation a(RelationSchema::Anonymous("R", 1));
  Relation b(RelationSchema::Anonymous("R", 1));
  a.Insert({I(1)});
  b.Insert({I(1)});
  b.Insert({I(2)});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsProperSubsetOf(b));
  EXPECT_FALSE(a.IsProperSubsetOf(a));
}

TEST(RelationTest, SetAlgebra) {
  Relation a(RelationSchema::Anonymous("R", 1));
  Relation b(RelationSchema::Anonymous("R", 1));
  for (int i = 0; i < 4; ++i) a.Insert({I(i)});
  for (int i = 2; i < 6; ++i) b.Insert({I(i)});
  EXPECT_EQ(a.Intersect(b).size(), 2u);
  EXPECT_EQ(a.Union(b).size(), 6u);
  EXPECT_EQ(a.Difference(b).size(), 2u);
  EXPECT_TRUE(a.Difference(a).empty());
}

TEST(RelationTest, Projection) {
  Relation r(RelationSchema::Anonymous("R", 3));
  r.Insert({I(1), I(2), I(3)});
  r.Insert({I(1), I(5), I(3)});
  Relation p = r.Project({0, 2});
  EXPECT_EQ(p.size(), 1u);  // duplicates collapse
  EXPECT_TRUE(p.Contains({I(1), I(3)}));
}

TEST(InstanceTest, ConstructionCreatesEmptyRelations) {
  Instance db(testing::EdgeSchema());
  EXPECT_EQ(db.TotalTuples(), 0u);
  EXPECT_TRUE(db.Empty());
  EXPECT_EQ(db.at("E").size(), 0u);
}

TEST(InstanceTest, AddRemoveTuples) {
  Instance db(testing::EdgeSchema());
  EXPECT_TRUE(db.AddTuple("E", {I(1), I(2)}));
  EXPECT_FALSE(db.AddTuple("E", {I(1), I(2)}));
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_TRUE(db.RemoveTuple("E", {I(1), I(2)}));
  EXPECT_TRUE(db.Empty());
}

TEST(InstanceTest, ProperSubset) {
  Instance a(testing::EdgeSchema());
  Instance b(testing::EdgeSchema());
  a.AddTuple("E", {I(1), I(2)});
  b.AddTuple("E", {I(1), I(2)});
  b.AddTuple("E", {I(2), I(3)});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsProperSubsetOf(b));
  EXPECT_FALSE(b.IsProperSubsetOf(a));
  EXPECT_FALSE(a.IsProperSubsetOf(a));
}

TEST(InstanceTest, UnionMerges) {
  Instance a(testing::EdgeSchema());
  Instance b(testing::EdgeSchema());
  a.AddTuple("E", {I(1), I(2)});
  b.AddTuple("E", {I(2), I(3)});
  Instance u = a.Union(b);
  EXPECT_EQ(u.TotalTuples(), 2u);
}

TEST(InstanceTest, ActiveDomainCollectsAllValues) {
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), S("x")});
  db.AddTuple("E", {I(1), S("y")});
  std::vector<Value> adom = db.ActiveDomain();
  EXPECT_EQ(adom.size(), 3u);
}

TEST(InstanceTest, EqualityIsTupleSetEquality) {
  Instance a(testing::EdgeSchema());
  Instance b(testing::EdgeSchema());
  a.AddTuple("E", {I(1), I(2)});
  b.AddTuple("E", {I(1), I(2)});
  EXPECT_EQ(a, b);
  b.AddTuple("E", {I(9), I(9)});
  EXPECT_NE(a, b);
}

class InstanceDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Re-execute the binary for the death branch instead of forking it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(InstanceDeathTest, UnknownRelationAbortsInEveryAccessor) {
  // A misspelled name fails loudly in every build type: it neither reads
  // through a null pointer nor writes into a shared empty relation.
  Instance db(testing::EdgeSchema());
  const Instance& read_only = db;
  EXPECT_DEATH(read_only.at("F"), "unknown relation 'F'");
  EXPECT_DEATH(db.at("F"), "unknown relation 'F'");
  EXPECT_DEATH(db.AddTuple("F", {I(1), I(2)}), "unknown relation 'F'");
  EXPECT_DEATH(db.RemoveTuple("F", {I(1), I(2)}), "unknown relation 'F'");
  EXPECT_TRUE(db.Empty());
}

}  // namespace
}  // namespace relcomp
