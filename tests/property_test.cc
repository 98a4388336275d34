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
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/adom.h"
#include "core/consistency.h"
#include "core/enumerate.h"
#include "core/minp.h"
#include "core/prepared_setting.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "query/fo.h"
#include "reductions/examples_fig1.h"
#include "reference_deciders.h"
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
// The row-at-a-time Mod walk and the once-per-request ground check = the
// reference loops of tests/reference_deciders.h.
// --------------------------------------------------------------------------

// A random problem outside the §7 regime: 1-3 relations of arity 1-2 with
// finite and infinite columns; 3-5 variables, at most two of them open
// (infinite columns and conditions only); row conditions x ≠ c and x = y,
// across rows and over condition-only variables; rows that swap two
// variables; IND, builtin and EncodeFdAsCc self-join CCs; a CQ or a
// two-disjunct UCQ. Variables and query widths stay small so that the
// reference odometer can walk |Adom|^open · |domain|^closed valuations.
RandomProblem MakeWideProblem(uint64_t seed) {
  Rng rng{seed};
  RandomProblem p;
  const Value kPool[] = {I(0), I(1), I(2), testing::S("a")};
  const Domain kDomains[] = {Domain::Finite({I(0), I(1)}),
                             Domain::Finite({I(0), I(1), I(2)}),
                             Domain::Infinite(), Domain::Infinite()};
  const int num_rels = 1 + rng.Int(3);
  for (int r = 0; r < num_rels; ++r) {
    std::vector<Attribute> attrs;
    for (int c = 1 + rng.Int(2); c > 0; --c) {
      attrs.push_back(Attribute{"c" + std::to_string(attrs.size()),
                                kDomains[rng.Int(4)]});
    }
    p.setting.schema.AddRelation(
        RelationSchema("R" + std::to_string(r), std::move(attrs)));
  }
  const Domain inf = Domain::Infinite();
  p.setting.master_schema.AddRelation(
      RelationSchema("M", {Attribute{"a", inf}}));
  p.setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w", inf}}));
  p.setting.dm = Instance(p.setting.master_schema);
  for (int i = 1 + rng.Int(3); i > 0; --i) {
    p.setting.dm.AddTuple("M", {kPool[rng.Int(4)]});
  }
  auto random_rel = [&]() -> const RelationSchema& {
    return p.setting.schema.relations()[static_cast<size_t>(
        rng.Int(num_rels))];
  };
  for (int c = 1 + rng.Int(3); c > 0; --c) {
    const RelationSchema& rel = random_rel();
    const int arity = static_cast<int>(rel.arity());
    std::vector<CTerm> args;
    for (int i = 0; i < arity; ++i) args.push_back(V(i));
    const int col = rng.Int(arity);
    const std::string name = "cc" + std::to_string(p.setting.ccs.size());
    const int kind = rng.Int(3);
    if (kind == 2 && arity == 2) {
      p.setting.ccs.push_back(
          EncodeFdAsCc(rel, {col}, 1 - col, "Empty1").value());
      continue;
    }
    std::vector<CondAtom> builtins;
    if (kind == 1) {
      builtins.push_back(
          CondAtom{V(rng.Int(arity)), rng.Int(2) == 0, kPool[rng.Int(4)]});
    }
    p.setting.ccs.emplace_back(
        name,
        ConjunctiveQuery({CTerm(V(col))}, {RelAtom{rel.name(), args}},
                         std::move(builtins)),
        "M", std::vector<int>{0});
  }

  // Variables [0, open) go to infinite columns and conditions only; the
  // rest to finite columns only.
  const int num_vars = 3 + rng.Int(3);
  const int open = 1 + rng.Int(2);
  std::vector<VarId> in_cells;
  auto cell_for = [&](const Domain& domain) -> Cell {
    if (rng.Int(2) == 0 || (!domain.is_finite() && open == 0)) {
      if (!domain.is_finite()) return kPool[rng.Int(4)];
      return domain.values()[static_cast<size_t>(
          rng.Int(static_cast<int>(domain.values().size())))];
    }
    const VarId v = domain.is_finite() ? V(open + rng.Int(num_vars - open))
                                       : V(rng.Int(open));
    in_cells.push_back(v);
    return v;
  };
  // A condition over the variables placed so far and the open ones, which
  // it may be the only place of.
  auto condition_var = [&]() {
    const int n = static_cast<int>(in_cells.size()) + open;
    const int pick = rng.Int(n);
    return pick < open ? V(pick) : in_cells[static_cast<size_t>(pick - open)];
  };
  p.cinstance = CInstance(p.setting.schema);
  for (const RelationSchema& rel : p.setting.schema.relations()) {
    for (int i = 1 + rng.Int(3); i > 0; --i) {
      CRow row;
      for (const Attribute& attr : rel.attributes()) {
        row.cells.push_back(cell_for(attr.domain));
      }
      if (in_cells.size() + static_cast<size_t>(open) > 0) {
        const int kind = rng.Int(4);
        if (kind == 0) {
          row.condition = Condition::VarNeqConst(condition_var(),
                                                 kPool[rng.Int(4)]);
        } else if (kind == 1) {
          row.condition =
              Condition({CondAtom{condition_var(), false, condition_var()}});
        }
      }
      p.cinstance.at(rel.name()).AddRow(std::move(row));
    }
  }
  // Two rows that swap two variables of one domain.
  const RelationSchema& swap_rel = random_rel();
  if (rng.Int(2) == 0 && swap_rel.arity() == 2 &&
      swap_rel.attribute(0).domain == swap_rel.attribute(1).domain) {
    const bool finite = swap_rel.attribute(0).domain.is_finite();
    if (finite || open > 0) {
      const int lo = finite ? open : 0;
      const int width = finite ? num_vars - open : open;
      const VarId x = V(lo + rng.Int(width));
      const VarId y = V(lo + rng.Int(width));
      p.cinstance.at(swap_rel.name()).AddRow({Cell(x), Cell(y)});
      p.cinstance.at(swap_rel.name()).AddRow({Cell(y), Cell(x)});
    }
  }

  // Query variables 0-2: the fresh budget grows with the largest id.
  const int head_arity = 1 + rng.Int(2);
  auto random_cq = [&]() {
    std::vector<RelAtom> atoms;
    std::vector<CTerm> used;
    for (int a = 1 + rng.Int(2); a > 0; --a) {
      const RelationSchema& rel = random_rel();
      RelAtom atom{rel.name(), {}};
      for (size_t i = 0; i < rel.arity(); ++i) {
        if (rng.Int(4) == 0) {
          atom.args.push_back(kPool[rng.Int(4)]);
        } else {
          atom.args.push_back(V(rng.Int(3)));
          used.push_back(atom.args.back());
        }
      }
      atoms.push_back(std::move(atom));
    }
    std::vector<CTerm> head;
    for (int h = 0; h < head_arity; ++h) {
      head.push_back(used.empty() ? CTerm(kPool[rng.Int(4)])
                                  : used[static_cast<size_t>(rng.Int(
                                        static_cast<int>(used.size())))]);
    }
    return ConjunctiveQuery(std::move(head), std::move(atoms));
  };
  if (rng.Int(3) == 0) {
    ConjunctiveQuery first = random_cq();
    p.query = Query::Ucq(UnionQuery({std::move(first), random_cq()}));
  } else {
    p.query = Query::Cq(random_cq());
  }
  return p;
}

// Sorted by their rows, so two world lists compare as sets.
std::vector<Instance> SortedWorlds(std::vector<Instance> worlds) {
  auto key = [](const Instance& w) {
    std::vector<std::vector<Tuple>> k;
    for (const Relation& rel : w.relations()) k.push_back(rel.rows());
    return k;
  };
  std::sort(worlds.begin(), worlds.end(),
            [&key](const Instance& a, const Instance& b) {
              return key(a) < key(b);
            });
  return worlds;
}

// What the oracle saw on one input, for the coverage check.
struct OracleCoverage {
  bool fresh_world = false;   // a world mentions a fresh constant
  bool dropped_row = false;   // some world drops a row by its condition
  bool shared_world = false;  // two row-walk bindings give one world
  bool empty_mod = false;
  bool yes = false;  // RcdpStrong's verdict
  bool no = false;
  std::vector<Instance> worlds;  // the row walk's, sorted
  std::string verdicts;          // "RcdpStrong=1 RcdpViable=0 ..."
};

// A NO witness of a strong decision must check on its own: µ binds every
// variable of T and µ(T) is the world, both instances satisfy V by the
// free check, the extension contains the world, and the answer is new.
void ExpectWitnessChecks(const Query& q, const CInstance* t,
                         const CompletenessWitness& w,
                         const PartiallyClosedSetting& setting,
                         const std::string& what) {
  if (t != nullptr) {
    for (VarId v : t->Vars()) {
      EXPECT_TRUE(w.world_valuation.IsBound(v)) << what << " x" << v.id;
    }
    ASSERT_OK_AND_ASSIGN(applied, t->Apply(w.world_valuation));
    EXPECT_EQ(applied, w.world) << what;
  }
  ASSERT_OK_AND_ASSIGN(world_closed, SatisfiesCCs(w.world, setting.dm,
                                                  setting.ccs));
  ASSERT_OK_AND_ASSIGN(ext_closed, SatisfiesCCs(w.extension, setting.dm,
                                                setting.ccs));
  EXPECT_TRUE(world_closed) << what;
  EXPECT_TRUE(ext_closed) << what;
  EXPECT_TRUE(w.world.IsSubsetOf(w.extension)) << what;
  ASSERT_OK_AND_ASSIGN(before, q.Eval(w.world));
  ASSERT_OK_AND_ASSIGN(after, q.Eval(w.extension));
  EXPECT_TRUE(after.Contains(w.answer)) << what;
  EXPECT_FALSE(before.Contains(w.answer)) << what;
}

// The three checks on one input: the world set, every decider's verdict
// against the one built from the reference loops, and every NO witness.
// `bounded_tuples` sizes RcqpStrongBounded's search; `check_weak` runs
// RcdpWeak, whose single-tuple extensions range over |Adom|^arity
// candidates per world on either side.
OracleCoverage CheckAgainstReference(const PartiallyClosedSetting& setting,
                                     const CInstance& t, const Query& q,
                                     size_t bounded_tuples, bool check_weak,
                                     const std::string& what) {
  OracleCoverage seen;
  const PreparedSetting prepared = testing::MustPrepare(setting);

  // World sets, the row walk's µ, and what the reference saw on the way.
  const AdomContext adom = prepared.BuildAdom(t, &q);
  std::vector<Instance> got;
  ModEnumerator walk(t, prepared, adom, {}, nullptr);
  Valuation mu;
  Instance world;
  while (true) {
    Result<bool> more = walk.Next(&mu, &world);
    EXPECT_TRUE(more.ok()) << what << ": " << more.status().ToString();
    if (!more.ok() || !*more) break;
    for (VarId v : t.Vars()) {
      EXPECT_TRUE(mu.IsBound(v)) << what << " x" << v.id;
    }
    Result<Instance> applied = t.Apply(mu);
    EXPECT_TRUE(applied.ok() && *applied == world)
        << what << " " << mu.ToString();
    got.push_back(world);
  }
  std::vector<Instance> want;
  // The row walk binds a row's cell variables only where the row is kept:
  // two valid valuations that differ on those (or on any condition
  // variable) are two of its bindings.
  std::map<std::vector<std::vector<Tuple>>, std::set<std::string>> bindings;
  {
    reference::ModWalk ref(
        t, prepared, adom, [&](const Valuation& nu, const Instance& w) {
          std::string relevant;
          for (const CTable& table : t.tables()) {
            for (const CRow& row : table.rows()) {
              std::vector<VarId> vars;
              row.condition.CollectVars(&vars);
              if (*row.condition.Eval(nu)) {
                for (const Cell& cell : row.cells) {
                  if (std::holds_alternative<VarId>(cell)) {
                    vars.push_back(std::get<VarId>(cell));
                  }
                }
              } else {
                seen.dropped_row = true;
              }
              for (VarId v : vars) {
                relevant += "x" + std::to_string(v.id) + "=" +
                            nu.Get(v)->ToString() + ";";
              }
            }
          }
          std::vector<std::vector<Tuple>> key;
          for (const Relation& rel : w.relations()) key.push_back(rel.rows());
          bindings[key].insert(relevant);
        });
    while (ref.Next(nullptr, &world)) want.push_back(world);
  }
  for (const auto& [key, relevant] : bindings) {
    if (relevant.size() > 1) seen.shared_world = true;
  }
  for (const Instance& w : want) {
    for (const Value& v : w.ActiveDomain()) {
      if (std::find(adom.fresh().begin(), adom.fresh().end(), v) !=
          adom.fresh().end()) {
        seen.fresh_world = true;
      }
    }
  }
  seen.empty_mod = want.empty();
  const std::vector<Instance> got_sorted = SortedWorlds(got);
  seen.worlds = got_sorted;
  EXPECT_EQ(got_sorted.size(), got.size()) << what;
  EXPECT_TRUE(got_sorted == SortedWorlds(want))
      << what << ": " << got.size() << " worlds, reference " << want.size();
  for (size_t i = 1; i < got_sorted.size(); ++i) {
    EXPECT_NE(got_sorted[i - 1], got_sorted[i]) << what << ": a duplicate";
  }

  // Verdicts, and the strong NO witnesses.
  auto same = [&what, &seen](const char* name, const Result<bool>& got_answer,
                             const Result<bool>& want_answer) {
    ASSERT_TRUE(got_answer.ok()) << what << " " << name << ": "
                                 << got_answer.status().ToString();
    ASSERT_TRUE(want_answer.ok()) << what << " " << name << ": "
                                  << want_answer.status().ToString();
    EXPECT_EQ(*got_answer, *want_answer) << what << " " << name;
    seen.verdicts += std::string(name) + "=" + (*got_answer ? "1 " : "0 ");
  };
  CompletenessWitness witness;
  const Result<bool> strong = RcdpStrong(q, t, prepared, {}, nullptr, &witness);
  same("RcdpStrong", strong, reference::RcdpStrong(q, want, prepared, adom));
  if (strong.ok()) {
    seen.yes = *strong;
    seen.no = !*strong;
    if (!*strong && !want.empty()) {
      ExpectWitnessChecks(q, &t, witness, setting, what + " RcdpStrong");
    }
  }
  same("RcdpViable", RcdpViable(q, t, prepared),
       reference::RcdpViable(q, want, prepared, adom));
  if (check_weak) {
    same("RcdpWeak", RcdpWeak(q, t, prepared),
         reference::RcdpWeak(q, want, prepared, adom));
  }
  same("MinpStrong", MinpStrong(q, t, prepared),
       reference::MinpStrong(q, want, prepared, adom));
  same("MinpViable", MinpViable(q, t, prepared),
       reference::MinpViable(q, want, prepared, adom));
  same("IsConsistent", IsConsistent(prepared, t),
       reference::IsConsistent(prepared, t));
  {
    Result<RcqpSearchResult> got_rcqp =
        RcqpStrongBounded(q, prepared, bounded_tuples);
    Result<RcqpSearchResult> want_rcqp =
        reference::RcqpStrongBounded(q, prepared, bounded_tuples);
    EXPECT_TRUE(got_rcqp.ok() && want_rcqp.ok()) << what;
    if (got_rcqp.ok() && want_rcqp.ok()) {
      EXPECT_EQ(got_rcqp->found, want_rcqp->found) << what << " RCQP";
      seen.verdicts += got_rcqp->found ? "RCQP=1 " : "RCQP=0 ";
    }
  }

  // Ground instances: a world that may mention fresh constants, and T
  // with every variable at its first candidate, which may violate V.
  std::vector<Instance> grounds;
  if (!want.empty()) grounds.push_back(want.front());
  Valuation first;
  for (VarId v : t.Vars()) {
    const std::vector<Value> values =
        reference::VarCandidates(t)[v.id].value_or(adom.values());
    if (!values.empty()) first.Bind(v, values.front());
  }
  if (Result<Instance> applied = t.Apply(first); applied.ok()) {
    grounds.push_back(std::move(applied).value());
  }
  for (const Instance& ground : grounds) {
    const std::string on = what + " on " + ground.ToString();
    CompletenessWitness ground_witness;
    const Result<bool> complete =
        RcdpStrongGround(q, ground, prepared, {}, nullptr, &ground_witness);
    same("RcdpStrongGround", complete,
         reference::RcdpStrongGround(q, ground, prepared));
    if (complete.ok() && !*complete &&
        SatisfiesCCs(ground, setting.dm, setting.ccs).value()) {
      ExpectWitnessChecks(q, nullptr, ground_witness, setting,
                          on + " RcdpStrongGround");
    }
    same("MinpStrongGround", MinpStrongGround(q, ground, prepared),
         reference::MinpStrongGround(q, ground, prepared));
  }
  return seen;
}

// The ∃FO⁺ rendering of a CQ or UCQ whose disjuncts share one head of
// distinct variables: ∃ over each disjunct's body-only variables, ∨ across
// the disjuncts, with the same variable ids, so its Adom is the CQ or
// UCQ's. nullopt for any other query.
std::optional<Query> EfoRendering(const Query& q) {
  const std::vector<ConjunctiveQuery> disjuncts = q.Disjuncts().value();
  const std::vector<CTerm>& head = disjuncts.front().head();
  std::vector<VarId> head_vars;
  for (const CTerm& t : head) {
    if (!std::holds_alternative<VarId>(t)) return std::nullopt;
    head_vars.push_back(std::get<VarId>(t));
  }
  std::vector<VarId> sorted = head_vars;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return std::nullopt;
  }
  std::vector<FoPtr> branches;
  for (const ConjunctiveQuery& d : disjuncts) {
    if (d.head() != head) return std::nullopt;
    std::vector<FoPtr> conjuncts;
    for (const RelAtom& atom : d.atoms()) {
      conjuncts.push_back(FoFormula::Atom(atom));
    }
    for (const CondAtom& b : d.builtins()) {
      conjuncts.push_back(b.neq ? FoFormula::Neq(b.lhs, b.rhs)
                                : FoFormula::Eq(b.lhs, b.rhs));
    }
    std::vector<VarId> body_only;
    for (VarId v : d.Vars()) {
      if (!std::binary_search(sorted.begin(), sorted.end(), v)) {
        body_only.push_back(v);
      }
    }
    FoPtr body = conjuncts.size() == 1 ? conjuncts.front()
                                       : FoFormula::And(std::move(conjuncts));
    if (!body_only.empty()) {
      body = FoFormula::Exists(std::move(body_only), std::move(body));
    }
    branches.push_back(std::move(body));
  }
  FoPtr formula = branches.size() == 1 ? branches.front()
                                       : FoFormula::Or(std::move(branches));
  return Query::Fo(FoQuery(std::move(head_vars), std::move(formula)));
}

TEST(ModOracle, WideProblemsMatchTheReferenceLoops) {
  constexpr uint64_t kSeeds = 256;
  size_t fresh = 0, dropped = 0, shared = 0, empty = 0, yes = 0, no = 0;
  size_t efo = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const RandomProblem p = MakeWideProblem(seed * 104729 + 7);
    const std::string what = "seed " + std::to_string(seed) + ": " +
                             p.query.ToString() + " on " +
                             p.cinstance.ToString();
    const OracleCoverage seen = CheckAgainstReference(
        p.setting, p.cinstance, p.query, /*bounded_tuples=*/1,
        /*check_weak=*/true, what);
    fresh += seen.fresh_world;
    dropped += seen.dropped_row;
    shared += seen.shared_world;
    empty += seen.empty_mod;
    yes += seen.yes;
    no += seen.no;

    // The same query in ∃FO⁺: the FO evaluator answers Q(I), the DNF
    // expansion gives the tableau disjuncts, and every verdict must match.
    const std::optional<Query> rendered = EfoRendering(p.query);
    if (!rendered.has_value()) continue;
    ASSERT_EQ(rendered->language(), QueryLanguage::kEFOPlus) << what;
    const PreparedSetting prepared = testing::MustPrepare(p.setting);
    EXPECT_EQ(prepared.BuildAdom(p.cinstance, &*rendered).values(),
              prepared.BuildAdom(p.cinstance, &p.query).values())
        << what;
    const OracleCoverage as_efo = CheckAgainstReference(
        p.setting, p.cinstance, *rendered, /*bounded_tuples=*/1,
        /*check_weak=*/true, what + " as " + rendered->ToString());
    EXPECT_TRUE(as_efo.worlds == seen.worlds) << what;
    EXPECT_EQ(as_efo.verdicts, seen.verdicts) << what;
    ++efo;
  }
  EXPECT_GE(efo, 32u) << "seeds checked in their ∃FO⁺ rendering";
  // Each shape the walk and the ground check treat specially shows up on
  // at least one seed in eight.
  const size_t floor = kSeeds / 8;
  EXPECT_GE(fresh, floor) << "worlds with a fresh constant";
  EXPECT_GE(dropped, floor) << "dropped rows";
  EXPECT_GE(shared, floor) << "two bindings of one world";
  EXPECT_GE(empty, floor) << "empty Mod";
  EXPECT_GE(yes, floor) << "YES verdicts";
  EXPECT_GE(no, floor) << "NO verdicts";
}

TEST(ModOracle, AWorldPinsItsFreshConstants) {
  // R(a) under σ_{a = 0} R ⊆ Empty1, so Adom's base is {0} and no 0 may
  // enter R. T = {R(x)} has a world R(f) for each fresh constant f, and
  // each is incomplete for Q(y) :- R(y) only through a ν that takes a
  // fresh constant other than f. A ν that kept its own fresh constant
  // would meet f itself in R(@new0), call that world complete, and make
  // the viable model answer YES.
  PartiallyClosedSetting setting;
  const Domain inf = Domain::Infinite();
  setting.schema.AddRelation(RelationSchema("R", {Attribute{"a", inf}}));
  setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w", inf}}));
  setting.dm = Instance(setting.master_schema);
  setting.ccs.emplace_back(
      "no_zero",
      ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"R", {V(0)}}},
                       {CondAtom{V(0), false, I(0)}}),
      "Empty1", std::vector<int>{0});
  CInstance t(setting.schema);
  t.at("R").AddRow({Cell(V(0))});
  const Query q =
      Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"R", {V(0)}}}));
  const OracleCoverage seen = CheckAgainstReference(
      setting, t, q, /*bounded_tuples=*/1, /*check_weak=*/true, "pinned");
  EXPECT_TRUE(seen.fresh_world);
  ASSERT_OK_AND_ASSIGN(viable,
                       RcdpViable(q, t, testing::MustPrepare(setting)));
  EXPECT_FALSE(viable);
}

TEST(ModOracle, Fig1FixturesMatchTheReferenceLoops) {
  // RCQP's search stays at ∅: one 8-column MVisit tuple already has about
  // 4 · 10^5 candidates. Q3's weak decision is NO, so both sides try all
  // of them in each of the 21 worlds (about 15 s each); Q1, Q2 and Q4
  // stop early.
  const PatientsFixture fx = MakePatientsFixture();
  for (const Query* q : {&fx.q1, &fx.q2, &fx.q3, &fx.q4}) {
    CheckAgainstReference(fx.setting, fx.ctable, *q, /*bounded_tuples=*/0,
                          /*check_weak=*/q != &fx.q3,
                          "Fig. 1 " + q->ToString());
  }
  const PatientsFixture scaled = MakeScaledPatientsFixture(2, 2);
  CheckAgainstReference(scaled.setting, scaled.ctable, scaled.q1,
                        /*bounded_tuples=*/0, /*check_weak=*/true,
                        "scaled(2, 2) " + scaled.q1.ToString());
}

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
