// Property tests over randomized instances: the model relationships of
// Section 2.2 (strong ⇒ weak ∧ viable; ground strong ⇔ viable), query
// monotonicity, CC subset closure (Lemma 4.7(a)), the direct deciders
// against the service (cold, cached, coalesced, through every front door,
// cancelled and retried), the compiled and semi-naive CC checks of
// PreparedSetting against the reference SatisfiesCCs
// (ConjunctiveQuery::Eval per CC), and the request-sized Adom against its
// definition S ∪ New ∪ df.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/prepared_setting.h"
#include "core/rcdp.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::V;

// Deterministic RNG.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int Int(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

// A small random partially closed world: unary Boolean relation A and
// binary relation E over {0, 1, 2}, with A bounded by a random master.
struct RandomProblem {
  PartiallyClosedSetting setting;
  CInstance cinstance;
  Query query;
};

RandomProblem MakeRandomProblem(uint64_t seed) {
  Rng rng{seed};
  RandomProblem p;
  Domain small = Domain::Finite({I(0), I(1), I(2)});
  p.setting.schema.AddRelation(
      RelationSchema("A", {Attribute{"x", small}}));
  p.setting.schema.AddRelation(RelationSchema(
      "E", {Attribute{"a", small}, Attribute{"b", small}}));
  p.setting.master_schema.AddRelation(
      RelationSchema("Am", {Attribute{"x", small}}));
  p.setting.dm = Instance(p.setting.master_schema);
  // Random nonempty master bound for A.
  for (int v = 0; v < 3; ++v) {
    if (rng.Int(2) == 0) p.setting.dm.AddTuple("Am", {I(v)});
  }
  p.setting.dm.AddTuple("Am", {I(rng.Int(3))});
  ConjunctiveQuery bound({CTerm(V(0))}, {RelAtom{"A", {V(0)}}});
  p.setting.ccs.emplace_back("bound", std::move(bound), "Am",
                             std::vector<int>{0});

  p.cinstance = CInstance(p.setting.schema);
  int a_rows = rng.Int(3);
  for (int i = 0; i < a_rows; ++i) {
    if (rng.Int(3) == 0) {
      p.cinstance.at("A").AddRow({Cell(V(i))});
    } else {
      p.cinstance.at("A").AddRow({Cell(I(rng.Int(3)))});
    }
  }
  int e_rows = rng.Int(3);
  for (int i = 0; i < e_rows; ++i) {
    p.cinstance.at("E").AddRow({Cell(I(rng.Int(3))), Cell(I(rng.Int(3)))});
  }

  // Query: either A(x) or the A-E join.
  if (rng.Int(2) == 0) {
    p.query = Query::Cq(
        ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"A", {V(0)}}}));
  } else {
    p.query = Query::Cq(ConjunctiveQuery(
        {CTerm(V(0)), CTerm(V(1))},
        {RelAtom{"A", {V(0)}}, RelAtom{"E", {V(0), V(1)}}}));
  }
  return p;
}

class ModelRelations : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelRelations, StrongImpliesWeakAndViable) {
  RandomProblem p = MakeRandomProblem(GetParam());
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(p.query, p.cinstance, prepared));
  if (strong) {
    ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(p.query, p.cinstance, prepared));
    EXPECT_TRUE(weak) << p.cinstance.ToString();
    ASSERT_OK_AND_ASSIGN(viable, RcdpViable(p.query, p.cinstance, prepared));
    EXPECT_TRUE(viable) << p.cinstance.ToString();
  }
}

TEST_P(ModelRelations, GroundStrongEqualsViable) {
  RandomProblem p = MakeRandomProblem(GetParam() + 5000);
  // Ground the c-instance by an arbitrary valuation (bind all vars to 0).
  Valuation mu;
  for (VarId v : p.cinstance.Vars()) mu.Bind(v, I(0));
  ASSERT_OK_AND_ASSIGN(ground, p.cinstance.Apply(mu));
  CInstance gi = CInstance::FromInstance(ground);
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  Result<bool> strong = RcdpStrong(p.query, gi, prepared);
  Result<bool> viable = RcdpViable(p.query, gi, prepared);
  ASSERT_TRUE(strong.ok() && viable.ok());
  EXPECT_EQ(*strong, *viable);
}

TEST_P(ModelRelations, MonotonicityOfCq) {
  RandomProblem p = MakeRandomProblem(GetParam() + 9000);
  Valuation mu;
  for (VarId v : p.cinstance.Vars()) mu.Bind(v, I(1));
  ASSERT_OK_AND_ASSIGN(world, p.cinstance.Apply(mu));
  Instance bigger = world;
  bigger.AddTuple("E", {I(0), I(0)});
  bigger.AddTuple("A", {I(0)});
  ASSERT_OK_AND_ASSIGN(small_out, p.query.Eval(world));
  ASSERT_OK_AND_ASSIGN(big_out, p.query.Eval(bigger));
  EXPECT_TRUE(small_out.IsSubsetOf(big_out));
}

TEST_P(ModelRelations, CcSatisfactionClosedUnderSubsets) {
  RandomProblem p = MakeRandomProblem(GetParam() + 13000);
  Valuation mu;
  for (VarId v : p.cinstance.Vars()) mu.Bind(v, I(2));
  ASSERT_OK_AND_ASSIGN(world, p.cinstance.Apply(mu));
  ASSERT_OK_AND_ASSIGN(closed,
                       SatisfiesCCs(world, p.setting.dm, p.setting.ccs));
  if (!closed) return;
  // Remove each tuple in turn; the CCs must stay satisfied (Lemma 4.7(a)).
  for (const Relation& rel : world.relations()) {
    for (const Tuple& t : rel.rows()) {
      Instance smaller = world;
      smaller.RemoveTuple(rel.schema().name(), t);
      ASSERT_OK_AND_ASSIGN(
          sub, SatisfiesCCs(smaller, p.setting.dm, p.setting.ccs));
      EXPECT_TRUE(sub);
    }
  }
}

TEST_P(ModelRelations, WeakHoldsWheneverViableAndCertainIsWorldAnswer) {
  // Sanity relationship: a strongly complete instance's certain answers are
  // the common answer of all worlds, so no extension can enlarge them.
  RandomProblem p = MakeRandomProblem(GetParam() + 17000);
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(p.query, p.cinstance, prepared));
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(p.query, p.cinstance, prepared));
  // strong ⇒ weak (contrapositive check).
  EXPECT_TRUE(!strong || weak);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRelations,
                         ::testing::Range<uint64_t>(0, 24));

// --------------------------------------------------------------------------
// One verdict per problem, whichever way it is asked.
// --------------------------------------------------------------------------

class DeciderAgreement : public ::testing::TestWithParam<uint64_t> {};

void ExpectSameDecision(const Decision& want, const Decision& got,
                        const std::string& what) {
  EXPECT_EQ(got.status.code(), want.status.code())
      << what << ": " << got.status.ToString();
  EXPECT_EQ(got.answer, want.answer) << what;
  EXPECT_EQ(got.stats.ToString(), want.stats.ToString()) << what;
}

TEST_P(DeciderAgreement, ServiceMissAndHitMatchTheDirectCall) {
  // The direct call, the service's first Decide (it evaluates) and its
  // second (a cache hit, which carries the original run's stats).
  RandomProblem p = MakeRandomProblem(GetParam());
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  ServiceOptions options;
  options.num_workers = 0;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(p.setting));
  for (ProblemKind kind : AllProblemKinds()) {
    DecisionRequest request;
    request.kind = kind;
    request.query = p.query;
    request.cinstance = p.cinstance;
    const std::string what =
        std::string(ProblemKindName(kind)) + " on " + p.cinstance.ToString();
    const Decision direct = EvaluateRequest(request, prepared);
    ASSERT_TRUE(direct.status.ok()) << what << ": " << direct.status.ToString();
    const Decision miss = service.Decide({handle, request});
    const Decision hit = service.Decide({handle, request});
    EXPECT_FALSE(miss.from_cache) << what;
    EXPECT_TRUE(hit.from_cache) << what;
    ExpectSameDecision(direct, miss, what + " (miss)");
    ExpectSameDecision(direct, hit, what + " (hit)");
  }
}

TEST_P(DeciderAgreement, EveryFrontDoorMatchesTheDirectCall) {
  // With caching off every answer is a fresh evaluation or a coalesced copy
  // of one: a batch holding the request twice (the copy reports that it
  // coalesced), a pull stream, an async future, and a request whose own
  // token already fired, then its retry without the token.
  RandomProblem p = MakeRandomProblem(GetParam());
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(p.setting));
  CancelSource fired;
  fired.Cancel();
  for (ProblemKind kind : AllProblemKinds()) {
    DecisionRequest request;
    request.kind = kind;
    request.query = p.query;
    request.cinstance = p.cinstance;
    const std::string what =
        std::string(ProblemKindName(kind)) + " on " + p.cinstance.ToString();
    const Decision direct = EvaluateRequest(request, prepared);
    ASSERT_TRUE(direct.status.ok()) << what << ": " << direct.status.ToString();

    const std::vector<Decision> batch =
        service.SubmitBatch({{handle, request}, {handle, request}});
    ExpectSameDecision(direct, batch[0], what + " (batch)");
    ExpectSameDecision(direct, batch[1], what + " (batch copy)");
    EXPECT_FALSE(batch[0].from_cache) << what;
    EXPECT_TRUE(batch[1].from_cache) << what;
    EXPECT_NE(batch[1].note.find("coalesced"), std::string::npos) << what;

    DecisionStream stream;
    service.SubmitStream({{handle, request}}, &stream);
    std::vector<Decision> streamed;
    stream.Drain([&streamed](StreamedDecision item) {
      streamed.push_back(std::move(item.decision));
    });
    ASSERT_EQ(streamed.size(), 1u) << what;
    ExpectSameDecision(direct, streamed[0], what + " (stream)");

    ExpectSameDecision(direct, service.SubmitAsync({handle, request}).get(),
                       what + " (async)");

    DecisionRequest cancelled = request;
    cancelled.options.cancel = fired.token();
    EXPECT_EQ(service.Decide({handle, cancelled}).status.code(),
              StatusCode::kCancelled)
        << what;
    ExpectSameDecision(direct, service.Decide({handle, request}),
                       what + " (retry)");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeciderAgreement,
                         ::testing::Range<uint64_t>(0, 24));

// --------------------------------------------------------------------------
// Compiled CC plans = reference path.
// --------------------------------------------------------------------------

// A random setting over R(a, b), P(a), T(a, b, c) and masters M1(a),
// M2(a, b), Empty1(w), with every value drawn from a four-constant pool
// that includes both Int 1 and Sym "1".
struct RandomCcSetting {
  PartiallyClosedSetting setting;
  Rng rng{0};

  Value Pick() {
    static const Value kPool[] = {I(0), I(1), I(2), testing::S("1")};
    return kPool[rng.Int(4)];
  }
  Tuple RandomTuple(size_t arity) {
    Tuple t;
    for (size_t i = 0; i < arity; ++i) t.push_back(Pick());
    return t;
  }
  const RelationSchema& RandomRelation() {
    return setting.schema.relations()[static_cast<size_t>(rng.Int(3))];
  }

  // A CQ of 1-3 atoms over a four-variable pool: variables repeat within
  // and across atoms; constants appear in atoms, builtins and the head;
  // a builtin may compare two constants.
  ContainmentConstraint RandomCq(int index) {
    std::vector<RelAtom> atoms;
    std::vector<VarId> bound;
    const int num_atoms = 1 + rng.Int(3);
    for (int a = 0; a < num_atoms; ++a) {
      const RelationSchema& rel = RandomRelation();
      RelAtom atom{rel.name(), {}};
      for (size_t i = 0; i < rel.arity(); ++i) {
        if (rng.Int(4) == 0) {
          atom.args.push_back(Pick());
        } else {
          VarId v = V(rng.Int(4));
          atom.args.push_back(v);
          bound.push_back(v);
        }
      }
      atoms.push_back(std::move(atom));
    }
    auto term = [&]() -> CTerm {
      if (bound.empty() || rng.Int(3) == 0) return Pick();
      const int pick = rng.Int(static_cast<int>(bound.size()));
      return bound[static_cast<size_t>(pick)];
    };
    std::vector<CondAtom> builtins;
    const int num_builtins = rng.Int(3);
    for (int b = 0; b < num_builtins; ++b) {
      CondAtom builtin;
      builtin.lhs = term();
      builtin.neq = rng.Int(2) == 0;
      builtin.rhs = term();
      builtins.push_back(std::move(builtin));
    }
    const size_t width = 1 + static_cast<size_t>(rng.Int(2));
    std::vector<CTerm> head;
    for (size_t i = 0; i < width; ++i) head.push_back(term());
    std::vector<int> cols = {0};
    if (width == 2) {
      cols = rng.Int(2) == 0 ? std::vector<int>{0, 1} : std::vector<int>{1, 0};
    }
    return ContainmentConstraint(
        "cc" + std::to_string(index),
        ConjunctiveQuery(std::move(head), std::move(atoms),
                         std::move(builtins)),
        width == 1 ? "M1" : "M2", std::move(cols));
  }

  explicit RandomCcSetting(uint64_t seed) : rng{seed} {
    const Domain inf = Domain::Infinite();
    setting.schema.AddRelation(
        RelationSchema("R", {Attribute{"a", inf}, Attribute{"b", inf}}));
    setting.schema.AddRelation(RelationSchema("P", {Attribute{"a", inf}}));
    setting.schema.AddRelation(RelationSchema(
        "T", {Attribute{"a", inf}, Attribute{"b", inf}, Attribute{"c", inf}}));
    setting.master_schema.AddRelation(
        RelationSchema("M1", {Attribute{"a", inf}}));
    setting.master_schema.AddRelation(
        RelationSchema("M2", {Attribute{"a", inf}, Attribute{"b", inf}}));
    setting.master_schema.AddRelation(
        RelationSchema("Empty1", {Attribute{"w", inf}}));
    setting.dm = Instance(setting.master_schema);
    for (int i = rng.Int(4); i > 0; --i) {
      setting.dm.AddTuple("M1", RandomTuple(1));
    }
    for (int i = rng.Int(8); i > 0; --i) {
      setting.dm.AddTuple("M2", RandomTuple(2));
    }
    const int num_ccs = 1 + rng.Int(3);
    for (int c = 0; c < num_ccs; ++c) {
      if (rng.Int(4) == 0) {
        // An Example 2.1 FD as a self-join over R or T.
        const RelationSchema& rel =
            setting.schema.relations()[rng.Int(2) == 0 ? 0 : 2];
        const int n = static_cast<int>(rel.arity());
        const int lhs = rng.Int(n);
        const int rhs = rng.Int(n);
        Result<ContainmentConstraint> fd =
            EncodeFdAsCc(rel, {lhs}, rhs, "Empty1");
        if (fd.ok()) setting.ccs.push_back(std::move(fd).value());
      } else {
        setting.ccs.push_back(RandomCq(c));
      }
    }
  }

  Instance RandomInstance(int max_rows) {
    Instance out(setting.schema);
    for (const RelationSchema& rel : setting.schema.relations()) {
      for (int i = rng.Int(max_rows + 1); i > 0; --i) {
        out.AddTuple(rel.name(), RandomTuple(rel.arity()));
      }
    }
    return out;
  }

  // 1-3 rows; some repeat a row of `base` or an earlier delta row.
  std::vector<DeltaRow> RandomDelta(const Instance& base) {
    std::vector<DeltaRow> delta;
    const int n = 1 + rng.Int(3);
    for (int i = 0; i < n; ++i) {
      DeltaRow row;
      row.rel = static_cast<size_t>(rng.Int(3));
      const Relation& existing = base.relations()[row.rel];
      if (rng.Int(3) == 0 && !existing.empty()) {
        row.tuple = existing.rows()[static_cast<size_t>(
            rng.Int(static_cast<int>(existing.size())))];
      } else if (rng.Int(4) == 0 && !delta.empty()) {
        row = delta.back();
      } else {
        row.tuple = RandomTuple(setting.schema.relations()[row.rel].arity());
      }
      delta.push_back(std::move(row));
    }
    return delta;
  }
};

Instance UnionOf(const Instance& base, const std::vector<DeltaRow>& delta,
                 const DatabaseSchema& schema) {
  Instance out = base;
  for (const DeltaRow& row : delta) {
    out.AddTuple(schema.relations()[row.rel].name(), row.tuple);
  }
  return out;
}

std::string Describe(const PartiallyClosedSetting& setting,
                     const Instance& instance) {
  std::string out = "Dm:\n" + setting.dm.ToString() + "\nV:";
  for (const ContainmentConstraint& cc : setting.ccs) {
    out += "\n" + cc.ToString();
  }
  return out + "\nI:\n" + instance.ToString();
}

class CompiledCcOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledCcOracle, CompiledAndDeltaChecksMatchTheReference) {
  RandomCcSetting gen(GetParam() * 7919 + 1);
  ASSERT_TRUE(gen.setting.Validate().ok());
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(gen.setting));
  const PartiallyClosedSetting& s = gen.setting;
  int closed_bases = 0;
  for (int round = 0; round < 12; ++round) {
    Instance instance = gen.RandomInstance(4);
    ASSERT_OK_AND_ASSIGN(want, SatisfiesCCs(instance, s.dm, s.ccs));
    ASSERT_OK_AND_ASSIGN(got, prepared.SatisfiesCCs(instance));
    EXPECT_EQ(got, want) << Describe(s, instance);

    // Shrink to a closed base (CCs are closed under subsets), then grow it
    // by random deltas.
    bool closed = want;
    while (!closed) {
      for (Relation& rel : instance.relations()) {
        if (!rel.empty()) {
          rel.Erase(rel.rows()[static_cast<size_t>(
              gen.rng.Int(static_cast<int>(rel.size())))]);
          break;
        }
      }
      ASSERT_OK_AND_ASSIGN(now, SatisfiesCCs(instance, s.dm, s.ccs));
      closed = now;
    }
    ++closed_bases;
    for (int d = 0; d < 4; ++d) {
      std::vector<DeltaRow> delta = gen.RandomDelta(instance);
      Instance extended = UnionOf(instance, delta, s.schema);
      ASSERT_OK_AND_ASSIGN(want_ext, SatisfiesCCs(extended, s.dm, s.ccs));
      EXPECT_EQ(prepared.SatisfiesCCsDelta(instance, delta), want_ext)
          << Describe(s, instance) << "\nI ∪ Δ:\n" << extended.ToString();
      ASSERT_OK_AND_ASSIGN(got_full, prepared.SatisfiesCCs(extended));
      EXPECT_EQ(got_full, want_ext) << Describe(s, extended);
      EXPECT_EQ(PreparedSetting::WithDelta(instance, delta), extended);
    }
  }
  EXPECT_GT(closed_bases, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledCcOracle,
                         ::testing::Range<uint64_t>(0, 64));

// --------------------------------------------------------------------------
// Request-sized Adom = the definition S ∪ New ∪ df.
// --------------------------------------------------------------------------

// A random setting over R(a, b ∈ {x, Int 1, Sym "1"}), U(c ∈ [0, 2]) and
// W(d, e), with a master M(a, b) that holds Int 1 next to Sym "1", an IND
// and sometimes a CC with a constant; a c-instance and a CQ whose constants
// fall inside and outside Dm, including names that look fresh.
struct RandomAdomProblem {
  PartiallyClosedSetting setting;
  CInstance cinstance;
  Query query;
  bool with_query = false;
  Instance around;  // a ground instance for the canonical enumerator
  Rng rng{0};

  Value Pick(bool inside) {
    static const Value kMaster[] = {I(1), testing::S("1"), testing::S("m0"),
                                    testing::S("m1"), testing::S("m2"), I(7)};
    static const Value kOutside[] = {
        testing::S("o0"),    testing::S("o1"),    I(42),
        testing::S("@new0"), testing::S("@new1"), testing::S("@new23"),
        testing::S("x")};
    return inside ? kMaster[rng.Int(6)] : kOutside[rng.Int(7)];
  }
  Value Pick() { return Pick(rng.Int(2) == 0); }
  Cell RandomCell(const Domain& domain, int vars) {
    if (rng.Int(3) == 0) return V(rng.Int(vars));
    if (domain.is_finite()) {
      return domain.values()[static_cast<size_t>(
          rng.Int(static_cast<int>(domain.values().size())))];
    }
    return Pick();
  }

  explicit RandomAdomProblem(uint64_t seed) : rng{seed} {
    const Domain inf = Domain::Infinite();
    setting.schema.AddRelation(RelationSchema(
        "R", {Attribute{"a", inf},
              Attribute{"b", Domain::Finite({testing::S("x"), I(1),
                                             testing::S("1")})}}));
    setting.schema.AddRelation(
        RelationSchema("U", {Attribute{"c", Domain::IntRange(0, 2)}}));
    setting.schema.AddRelation(
        RelationSchema("W", {Attribute{"d", inf}, Attribute{"e", inf}}));
    setting.master_schema.AddRelation(
        RelationSchema("M", {Attribute{"a", inf}, Attribute{"b", inf}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("M", {I(1), testing::S("1")});
    for (int i = rng.Int(6); i > 0; --i) {
      setting.dm.AddTuple("M", {Pick(true), Pick(true)});
    }
    if (rng.Int(3) == 0) setting.dm.AddTuple("M", {testing::S("@new0"), I(1)});
    // π_a(R) ⊆ M[a], over a random variable universe.
    const int x = rng.Int(4);
    const int y = x + 1 + rng.Int(3);
    setting.ccs.emplace_back(
        "ind", ConjunctiveQuery({CTerm(V(x))}, {RelAtom{"R", {V(x), V(y)}}}),
        "M", std::vector<int>{0});
    if (rng.Int(2) == 0) {
      setting.ccs.emplace_back(
          "pinned",
          ConjunctiveQuery({CTerm(V(0))},
                           {RelAtom{"W", {V(0), CTerm(testing::S("vconst"))}}}),
          "M", std::vector<int>{0});
    }

    cinstance = CInstance(setting.schema);
    const int t_vars = 1 + rng.Int(5);
    for (const RelationSchema& rel : setting.schema.relations()) {
      for (int i = rng.Int(4); i > 0; --i) {
        std::vector<Cell> cells;
        for (const Attribute& attr : rel.attributes()) {
          cells.push_back(RandomCell(attr.domain, t_vars));
        }
        cinstance.at(rel.name()).AddRow(std::move(cells));
      }
    }
    if (rng.Int(4) == 0) {
      // Many variables: the fresh names run past "@new23", a T/Q constant.
      for (int v = 0; v < 24; ++v) {
        cinstance.at("W").AddRow({Cell(V(100 + v)), Cell(Pick())});
      }
    }

    // A CQ over at most two variables (so the canonical enumeration stays
    // small), with constants in atoms and sometimes in the head.
    with_query = rng.Int(4) != 0;
    std::vector<RelAtom> atoms;
    std::vector<CTerm> head;
    for (int a = 1 + rng.Int(2); a > 0; --a) {
      const RelationSchema& rel =
          setting.schema.relations()[static_cast<size_t>(rng.Int(3))];
      RelAtom atom{rel.name(), {}};
      for (size_t i = 0; i < rel.arity(); ++i) {
        if (rng.Int(3) == 0) {
          atom.args.push_back(Pick());
        } else {
          const VarId v = V(rng.Int(2));
          atom.args.push_back(v);
          if (head.size() < 2 && rng.Int(2) == 0) head.push_back(v);
        }
      }
      atoms.push_back(std::move(atom));
    }
    if (rng.Int(3) == 0) head.push_back(Pick());
    query = Query::Cq(ConjunctiveQuery(std::move(head), std::move(atoms)));
    rng.Int(3);  // an unused draw: keeps each seed's `around` instance

    around = Instance(setting.schema);
    for (int i = rng.Int(4); i > 0; --i) {
      around.AddTuple("W", {Pick(), Pick()});
    }
  }
};

// Adom by sort, straight from the definition.
struct ReferenceAdom {
  std::vector<Value> base;
  std::vector<Value> fresh;
  std::vector<Value> values;
};

void SortUnique(std::vector<Value>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

ReferenceAdom ReferenceAdomOf(const RandomAdomProblem& p) {
  const PartiallyClosedSetting& s = p.setting;
  ReferenceAdom ref;
  // S: the constants of Dm, V, T and Q; df: every finite-domain constant.
  ref.base = s.dm.ActiveDomain();
  const std::vector<Value> cc_constants = CcConstants(s.ccs);
  const std::vector<Value> t_constants = p.cinstance.Constants();
  ref.base.insert(ref.base.end(), cc_constants.begin(), cc_constants.end());
  ref.base.insert(ref.base.end(), t_constants.begin(), t_constants.end());
  if (p.with_query) {
    const std::vector<Value> q_constants = p.query.Constants();
    ref.base.insert(ref.base.end(), q_constants.begin(), q_constants.end());
  }
  size_t max_arity = 0;
  for (const DatabaseSchema* schema : {&s.schema, &s.master_schema}) {
    for (const RelationSchema& rel : schema->relations()) {
      if (schema == &s.schema) max_arity = std::max(max_arity, rel.arity());
      for (const Attribute& attr : rel.attributes()) {
        if (!attr.domain.is_finite()) continue;
        ref.base.insert(ref.base.end(), attr.domain.values().begin(),
                        attr.domain.values().end());
      }
    }
  }
  SortUnique(&ref.base);
  // New: "@new0", "@new1", ... minus S ∪ df, one per variable of T, V and
  // Q, and per column of the widest relation.
  size_t wanted = p.cinstance.Vars().size() +
                  static_cast<size_t>(CcMaxVarId(s.ccs) + 1) + max_arity;
  if (p.with_query) wanted += static_cast<size_t>(p.query.MaxVarId() + 1);
  for (size_t counter = 0; ref.fresh.size() < wanted; ++counter) {
    const Value name = Value::Sym("@new" + std::to_string(counter));
    if (!std::binary_search(ref.base.begin(), ref.base.end(), name)) {
      ref.fresh.push_back(name);
    }
  }
  ref.values = ref.base;
  ref.values.insert(ref.values.end(), ref.fresh.begin(), ref.fresh.end());
  SortUnique(&ref.values);
  return ref;
}

// Every variable of `cq` (atoms, builtins, head) with its candidates: the
// intersection of the finite domains of its columns, or all of Adom
// (`adom_values`) when no finite domain constrains it.
std::map<int32_t, std::vector<Value>> ClosedCandidatesOf(
    const ConjunctiveQuery& cq, const DatabaseSchema& schema,
    const std::vector<Value>& adom_values) {
  std::map<int32_t, std::optional<std::vector<Value>>> finite;
  auto touch = [&finite](const CTerm& term) {
    if (std::holds_alternative<VarId>(term)) {
      finite.try_emplace(std::get<VarId>(term).id);
    }
  };
  for (const RelAtom& atom : cq.atoms()) {
    const RelationSchema& rel = *schema.Find(atom.rel);
    for (size_t i = 0; i < atom.args.size(); ++i) {
      touch(atom.args[i]);
      const Domain& domain = rel.attribute(i).domain;
      if (!std::holds_alternative<VarId>(atom.args[i]) ||
          !domain.is_finite()) {
        continue;
      }
      std::optional<std::vector<Value>>& acc =
          finite[std::get<VarId>(atom.args[i]).id];
      if (!acc.has_value()) {
        acc = domain.values();
        continue;
      }
      std::vector<Value> both;
      std::set_intersection(acc->begin(), acc->end(), domain.values().begin(),
                            domain.values().end(), std::back_inserter(both));
      acc = std::move(both);
    }
  }
  for (const CondAtom& b : cq.builtins()) {
    touch(b.lhs);
    touch(b.rhs);
  }
  for (const CTerm& t : cq.head()) touch(t);
  std::map<int32_t, std::vector<Value>> out;
  for (const auto& [id, values] : finite) {
    out.emplace(id, values.has_value() ? *values : adom_values);
  }
  return out;
}

class AdomOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdomOracle, MatchesTheDefinition) {
  RandomAdomProblem p(GetParam() * 6007 + 11);
  const ReferenceAdom want = ReferenceAdomOf(p);
  const Query* q = p.with_query ? &p.query : nullptr;
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  // A seed built afresh from the setting, and the one Prepare cached.
  const AdomContext direct = AdomContext::BuildFromSeed(
      std::make_shared<const AdomSeed>(AdomContext::SeedFor(p.setting)),
      p.cinstance, q);
  const AdomContext shared = prepared.BuildAdom(p.cinstance, q);
  for (const AdomContext* adom : {&direct, &shared}) {
    EXPECT_EQ(adom->values(), want.values);
    EXPECT_EQ(adom->base(), want.base);
    EXPECT_EQ(adom->fresh(), want.fresh);
  }
}

TEST_P(AdomOracle, OpenFlagsAndCanonicalEnumerationKeepTheOldRule) {
  RandomAdomProblem p(GetParam() * 7727 + 13);
  p.with_query = true;
  const ReferenceAdom want = ReferenceAdomOf(p);
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(p.setting));
  const AdomContext adom = prepared.BuildAdom(p.cinstance, &p.query);
  ASSERT_EQ(adom.fresh(), want.fresh);
  ASSERT_EQ(adom.values(), want.values);
  const ConjunctiveQuery& cq = p.query.cq();
  const DatabaseSchema& schema = p.setting.schema;

  // The old rule: a variable is open iff its candidate list is all of Adom.
  const std::vector<OpenVarCandidate> open = CqVarCandidatesOpen(cq, schema);
  const std::map<int32_t, std::vector<Value>> closed =
      ClosedCandidatesOf(cq, schema, want.values);
  ASSERT_EQ(open.size(), closed.size());
  std::vector<OpenVarCandidate> old_rule;
  auto it = closed.begin();
  for (size_t i = 0; i < open.size(); ++i, ++it) {
    EXPECT_EQ(open[i].var, VarId{it->first});
    OpenVarCandidate entry;
    entry.var = VarId{it->first};
    entry.open = it->second == want.values;
    if (!entry.open) entry.values = it->second;
    EXPECT_EQ(open[i].open, entry.open) << cq.ToString();
    EXPECT_EQ(open[i].values, entry.values) << cq.ToString();
    old_rule.push_back(std::move(entry));
  }

  // The old canonical enumerator: base ∪ adom(around) by sort, the fresh
  // constants outside it. Both must yield the same valuations in order.
  std::vector<Value> old_base = want.base;
  const std::vector<Value> pinned = p.around.ActiveDomain();
  old_base.insert(old_base.end(), pinned.begin(), pinned.end());
  SortUnique(&old_base);
  std::vector<Value> old_fresh;
  for (const Value& f : want.fresh) {
    if (!std::binary_search(old_base.begin(), old_base.end(), f)) {
      old_fresh.push_back(f);
    }
  }
  CanonicalValuationEnumerator reference(std::move(old_rule),
                                         std::move(old_base),
                                         std::move(old_fresh));
  CanonicalValuationEnumerator got =
      MakeCanonicalCqEnumerator(cq, schema, adom, p.around);
  Valuation want_nu;
  Valuation got_nu;
  size_t steps = 0;
  while (true) {
    const bool more = reference.Next(&want_nu);
    ASSERT_EQ(got.Next(&got_nu), more) << "after " << steps << " valuations";
    if (!more) break;
    ASSERT_EQ(got_nu.ToString(), want_nu.ToString()) << "at " << steps;
    ++steps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdomOracle, ::testing::Range<uint64_t>(0, 64));

// values() and base() are built on first use; two threads asking at once
// get one vector each, equal to the definition.
TEST(AdomLazyBuild, ConcurrentFirstCallsBuildOnce) {
  RandomAdomProblem p(424242);
  const ReferenceAdom want = ReferenceAdomOf(p);
  const Query* q = p.with_query ? &p.query : nullptr;
  const PreparedSetting prepared = testing::MustPrepare(p.setting);
  const AdomContext adom = prepared.BuildAdom(p.cinstance, q);
  std::atomic<bool> go{false};
  const std::vector<Value>* values[2] = {nullptr, nullptr};
  const std::vector<Value>* base[2] = {nullptr, nullptr};
  auto reader = [&](int i) {
    while (!go.load()) {
    }
    values[i] = &adom.values();
    base[i] = &adom.base();
  };
  std::thread a(reader, 0);
  std::thread b(reader, 1);
  go.store(true);
  a.join();
  b.join();
  EXPECT_EQ(values[0], values[1]);
  EXPECT_EQ(base[0], base[1]);
  EXPECT_EQ(*values[0], want.values);
  EXPECT_EQ(*base[0], want.base);
}

}  // namespace
}  // namespace relcomp
