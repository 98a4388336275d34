// Tests for the enumeration machinery: the one odometer over closed levels
// (valuations and candidate tuples, checked against nested loops), Mod(T)
// world enumeration, and its symmetry-broken open levels (checked for
// equivalence against exhaustive enumeration).
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>

#include "core/enumerate.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

using Level = CanonicalValuationEnumerator::Level;

TEST(OdometerTest, ZeroVariablesYieldOneEmptyValuation) {
  CanonicalValuationEnumerator e(std::vector<Level>{});
  Valuation mu;
  EXPECT_TRUE(e.Next(&mu));
  EXPECT_FALSE(e.Next(&mu));
}

TEST(OdometerTest, ProductCount) {
  const std::vector<Value> two = {I(0), I(1)};
  const std::vector<Value> three = {I(0), I(1), I(2)};
  CanonicalValuationEnumerator e(std::vector<Level>{{V(0), &two},
                                                    {V(1), &three}});
  std::set<std::string> seen;
  Valuation mu;
  size_t count = 0;
  while (e.Next(&mu)) {
    ++count;
    seen.insert(mu.Get(V(0))->ToString() + "," + mu.Get(V(1))->ToString());
  }
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(seen.size(), 6u);
}

TEST(OdometerTest, EmptyCandidateListMeansNoValuations) {
  const std::vector<Value> none;
  CanonicalValuationEnumerator e(std::vector<Level>{{V(0), &none}});
  Valuation mu;
  EXPECT_FALSE(e.Next(&mu));
}

TEST(OdometerTest, CandidateTuplesRespectFiniteDomains) {
  RelationSchema schema(
      "R", {Attribute{"a", Domain::Boolean()},
            Attribute{"b", Domain::Finite({S("x"), S("y"), S("z")})}});
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(schema);
  setting.dm = Instance(setting.master_schema);
  CInstance empty(setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(setting);
  AdomContext adom = prepared.BuildAdom(empty, nullptr);
  CanonicalValuationEnumerator e = CandidateTuples(schema, adom);
  Tuple t;
  size_t count = 0;
  while (e.Next(&t)) {
    ++count;
    EXPECT_TRUE(Domain::Boolean().Contains(t[0]));
  }
  EXPECT_EQ(count, 6u);
}

// The closed walks (a c-table row's bindings, candidate tuples) feed
// their levels last first, so the odometer yields the cartesian product
// with the FIRST level advancing fastest: the order every decider's
// counters and witnesses were pinned under. Checked against nested loops
// on random candidate lists, including zero levels, an empty list, and
// Int 1 next to Sym "1".
TEST(OdometerTest, ReversedClosedLevelsMatchNestedLoopsFirstLevelFastest) {
  const Value pool[] = {I(1), S("1"), I(0), S("x"), I(7)};
  std::mt19937 gen(20260);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<Value>> lists(gen() % 5);
    for (std::vector<Value>& list : lists) {
      for (unsigned n = gen() % 4; n > 0; --n) list.push_back(pool[gen() % 5]);
    }
    // The reference: nested loops, level 0 innermost.
    std::vector<std::vector<Value>> want;
    std::vector<Value> row(lists.size());
    std::function<void(size_t)> nest = [&](size_t level) {
      if (level == 0) {
        want.push_back(row);
        return;
      }
      for (const Value& v : lists[level - 1]) {
        row[level - 1] = v;
        nest(level - 1);
      }
    };
    nest(lists.size());

    std::vector<Level> levels;
    for (size_t i = lists.size(); i > 0; --i) {
      levels.push_back({V(static_cast<int32_t>(i - 1)), &lists[i - 1]});
    }
    CanonicalValuationEnumerator valuations(levels);
    CanonicalValuationEnumerator tuples(levels);
    std::vector<std::vector<Value>> got;
    Valuation mu;
    Tuple t;
    while (valuations.Next(&mu)) {
      ASSERT_TRUE(tuples.Next(&t));
      std::vector<Value> bound;
      for (size_t i = 0; i < lists.size(); ++i) {
        bound.push_back(*mu.Get(V(static_cast<int32_t>(i))));
      }
      EXPECT_EQ(bound, t);
      got.push_back(std::move(bound));
    }
    EXPECT_FALSE(tuples.Next(&t));
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(ModEnumeratorTest, DeduplicatesIsomorphicWorlds) {
  // Two variables in one Boolean column: 2 bindings of the first row and 2
  // of the second under each, 4 bindings of both rows, 3 distinct worlds
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
  EXPECT_EQ(stats.valuations, 6u);
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
