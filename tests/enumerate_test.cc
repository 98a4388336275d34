// Tests for the enumeration machinery: odometer valuations, tuple
// enumeration, Mod(T) world enumeration, and the symmetry-broken canonical
// enumerator (checked for equivalence against exhaustive enumeration).
#include <gtest/gtest.h>

#include <set>

#include "core/enumerate.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

TEST(ValuationEnumeratorTest, ZeroVariablesYieldOneEmptyValuation) {
  ValuationEnumerator e({});
  Valuation mu;
  EXPECT_TRUE(e.Next(&mu));
  EXPECT_FALSE(e.Next(&mu));
  EXPECT_EQ(e.TotalCount(), 1u);
}

TEST(ValuationEnumeratorTest, ProductCount) {
  VarCandidateList vars;
  vars.emplace_back(V(0), std::vector<Value>{I(0), I(1)});
  vars.emplace_back(V(1), std::vector<Value>{I(0), I(1), I(2)});
  ValuationEnumerator e(vars);
  EXPECT_EQ(e.TotalCount(), 6u);
  std::set<std::string> seen;
  Valuation mu;
  while (e.Next(&mu)) {
    seen.insert(mu.Get(V(0))->ToString() + "," + mu.Get(V(1))->ToString());
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(ValuationEnumeratorTest, EmptyCandidateListMeansNoValuations) {
  VarCandidateList vars;
  vars.emplace_back(V(0), std::vector<Value>{});
  ValuationEnumerator e(vars);
  Valuation mu;
  EXPECT_FALSE(e.Next(&mu));
  EXPECT_EQ(e.TotalCount(), 0u);
}

TEST(TupleEnumeratorTest, RespectsFiniteDomains) {
  RelationSchema schema(
      "R", {Attribute{"a", Domain::Boolean()},
            Attribute{"b", Domain::Finite({S("x"), S("y"), S("z")})}});
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(schema);
  setting.dm = Instance(setting.master_schema);
  CInstance empty(setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(setting);
  AdomContext adom = prepared.BuildAdom(empty, nullptr);
  TupleEnumerator e(schema, adom);
  EXPECT_EQ(e.TotalCount(), 6u);
  Tuple t;
  size_t count = 0;
  while (e.Next(&t)) {
    ++count;
    EXPECT_TRUE(Domain::Boolean().Contains(t[0]));
  }
  EXPECT_EQ(count, 6u);
}

TEST(ModEnumeratorTest, DeduplicatesIsomorphicWorlds) {
  // Two variables in one Boolean column: 4 valuations, 3 distinct worlds
  // ({0}, {1}, {0,1}).
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(
      RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
  setting.dm = Instance(setting.master_schema);
  CInstance t(setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  t.at("B").AddRow({Cell(V(1))});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  AdomContext adom = prepared.BuildAdom(t, nullptr);
  SearchStats stats;
  ModEnumerator worlds(t, prepared, adom, {}, &stats);
  int count = 0;
  Instance world;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    ASSERT_TRUE(got.ok());
    if (!*got) break;
    ++count;
  }
  EXPECT_EQ(count, 3);
  EXPECT_EQ(stats.valuations, 4u);
}

// ---------------------------------------------------------------------------
// Canonical (symmetry-broken) enumeration.
// ---------------------------------------------------------------------------

TEST(CanonicalEnumeratorTest, TwoOpenVarsNoBase) {
  // Representatives of the partitions of 2 elements: (f0, f0), (f0, f1).
  std::vector<OpenVarCandidate> vars;
  vars.push_back({V(0), {}, true});
  vars.push_back({V(1), {}, true});
  CanonicalValuationEnumerator e(std::move(vars), {},
                                 {S("@f0"), S("@f1"), S("@f2")});
  Valuation mu;
  int count = 0;
  while (e.Next(&mu)) ++count;
  EXPECT_EQ(count, 2);  // Bell(2)
}

TEST(CanonicalEnumeratorTest, ThreeOpenVarsBellNumber) {
  std::vector<OpenVarCandidate> vars;
  for (int i = 0; i < 3; ++i) vars.push_back({V(i), {}, true});
  CanonicalValuationEnumerator e(std::move(vars), {},
                                 {S("@f0"), S("@f1"), S("@f2"), S("@f3")});
  Valuation mu;
  int count = 0;
  while (e.Next(&mu)) ++count;
  EXPECT_EQ(count, 5);  // Bell(3)
}

TEST(CanonicalEnumeratorTest, BaseValuesAlwaysAvailable) {
  std::vector<OpenVarCandidate> vars;
  vars.push_back({V(0), {}, true});
  CanonicalValuationEnumerator e(std::move(vars), {I(7)}, {S("@f0")});
  Valuation mu;
  std::set<std::string> seen;
  while (e.Next(&mu)) seen.insert(mu.Get(V(0))->ToString());
  EXPECT_EQ(seen.size(), 2u);  // 7 and @f0
  EXPECT_TRUE(seen.count("7"));
}

TEST(CanonicalEnumeratorTest, ClosedVarsUnaffected) {
  std::vector<OpenVarCandidate> vars;
  vars.push_back({V(0), {I(0), I(1)}, false});
  vars.push_back({V(1), {}, true});
  CanonicalValuationEnumerator e(std::move(vars), {}, {S("@f0"), S("@f1")});
  Valuation mu;
  int count = 0;
  while (e.Next(&mu)) ++count;
  EXPECT_EQ(count, 2 * 1);  // closed 2 × canonical fresh 1
}

TEST(CanonicalEnumeratorTest, NoValuesForOpenVarExhaustsImmediately) {
  std::vector<OpenVarCandidate> vars;
  vars.push_back({V(0), {}, true});
  CanonicalValuationEnumerator e(std::move(vars), {}, {});
  Valuation mu;
  EXPECT_FALSE(e.Next(&mu));
}

TEST(CanonicalEnumeratorTest, EquivalentToExhaustiveUpToRenaming) {
  // Every exhaustive valuation over {b} ∪ {f0, f1, f2} must have a canonical
  // representative with the same equality pattern and base positions.
  std::vector<Value> base = {I(99)};
  std::vector<Value> fresh = {S("@f0"), S("@f1"), S("@f2")};
  const int n = 3;
  // Collect canonical signatures: for each pair (i, j) equal/unequal, plus
  // base-value identity per position.
  auto signature = [&](const std::vector<Value>& vals) {
    std::string sig;
    for (int i = 0; i < n; ++i) {
      bool is_base = vals[static_cast<size_t>(i)] == I(99);
      sig += is_base ? 'b' : '.';
      for (int j = 0; j < i; ++j) {
        sig += (vals[static_cast<size_t>(i)] ==
                vals[static_cast<size_t>(j)])
                   ? '='
                   : '!';
      }
    }
    return sig;
  };
  std::set<std::string> canonical_sigs;
  {
    std::vector<OpenVarCandidate> vars;
    for (int i = 0; i < n; ++i) vars.push_back({V(i), {}, true});
    CanonicalValuationEnumerator e(std::move(vars), base, fresh);
    Valuation mu;
    while (e.Next(&mu)) {
      std::vector<Value> vals;
      for (int i = 0; i < n; ++i) vals.push_back(*mu.Get(V(i)));
      canonical_sigs.insert(signature(vals));
    }
  }
  // Exhaustive enumeration over the same pool.
  std::vector<Value> pool = base;
  pool.insert(pool.end(), fresh.begin(), fresh.end());
  for (size_t a = 0; a < pool.size(); ++a) {
    for (size_t b = 0; b < pool.size(); ++b) {
      for (size_t c = 0; c < pool.size(); ++c) {
        std::string sig = signature({pool[a], pool[b], pool[c]});
        EXPECT_TRUE(canonical_sigs.count(sig))
            << "missing representative for " << sig;
      }
    }
  }
}

TEST(CanonicalEnumeratorTest, CqHelperMarksFiniteDomainsClosed) {
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "R", {Attribute{"a", Domain::Boolean()},
            Attribute{"b", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(V(0)), CTerm(V(1))}, {RelAtom{"R", {V(0), V(1)}}}));
  std::vector<OpenVarCandidate> vars =
      CqVarCandidatesOpen(q.cq(), setting.schema);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_FALSE(vars[0].open);  // Boolean column
  EXPECT_EQ(vars[0].values.size(), 2u);
  EXPECT_TRUE(vars[1].open);  // infinite column
}

TEST(AdomTest, ContainsConstantsFreshAndFiniteDomains) {
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "R", {Attribute{"a", Domain::Finite({S("fd1"), S("fd2")})},
            Attribute{"b", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  CInstance t(setting.schema);
  t.at("R").AddRow({Cell(S("fd1")), Cell(V(0))});
  t.at("R").AddRow({Cell(S("fd2")), Cell(S("const"))});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  AdomContext adom = prepared.BuildAdom(t, nullptr);
  auto contains = [&adom](const Value& v) {
    return std::binary_search(adom.values().begin(), adom.values().end(), v);
  };
  EXPECT_TRUE(contains(S("fd1")));
  EXPECT_TRUE(contains(S("const")));
  EXPECT_FALSE(adom.fresh().empty());
  EXPECT_TRUE(contains(adom.fresh()[0]));
  // Fresh values never collide with base constants.
  for (const Value& f : adom.fresh()) {
    EXPECT_FALSE(std::binary_search(adom.base().begin(), adom.base().end(),
                                    f));
  }
}

}  // namespace
}  // namespace relcomp
