// Tests for certain answers over Mod(T, Dm, V), plus the Status/Result and
// interner utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/certain.h"
#include "test_util.h"
#include "util/interner.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

constexpr SymbolId kNoId = ~SymbolId{0};

struct BoolFixture {
  PartiallyClosedSetting setting;
  Query q;

  BoolFixture() {
    setting.schema.AddRelation(
        RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
    setting.master_schema.AddRelation(
        RelationSchema("Bm", {Attribute{"x", Domain::Boolean()}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("Bm", {I(0)});
    setting.dm.AddTuple("Bm", {I(1)});
    ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"B", {V(0)}}});
    setting.ccs.emplace_back("bound", std::move(cc_q), "Bm",
                             std::vector<int>{0});
    q = Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"B", {V(0)}}}));
  }
};

TEST(CertainAnswersTest, GroundInstanceIsItsOwnCertainty) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  AdomContext adom = prepared.BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result, CertainAnswers(fx.q, t, prepared, adom));
  EXPECT_TRUE(result.mod_nonempty);
  EXPECT_EQ(result.answers.size(), 1u);
  EXPECT_TRUE(result.answers.Contains({I(1)}));
}

TEST(CertainAnswersTest, VariableRowIntersectsToConstantPart) {
  // T = {(x), (1)}: worlds {0,1} and {1}; certain answer = {1}.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  AdomContext adom = prepared.BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result, CertainAnswers(fx.q, t, prepared, adom));
  EXPECT_TRUE(result.mod_nonempty);
  EXPECT_EQ(result.answers.size(), 1u);
  EXPECT_TRUE(result.answers.Contains({I(1)}));
}

TEST(CertainAnswersTest, LoneVariableHasNoCertainAnswers) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  AdomContext adom = prepared.BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result, CertainAnswers(fx.q, t, prepared, adom));
  EXPECT_TRUE(result.mod_nonempty);
  EXPECT_TRUE(result.answers.empty());
}

TEST(CertainAnswersTest, InconsistentCInstanceReported) {
  BoolFixture fx;
  fx.setting.dm.at("Bm").Erase({I(0)});
  fx.setting.dm.at("Bm").Erase({I(1)});
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  AdomContext adom = prepared.BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result, CertainAnswers(fx.q, t, prepared, adom));
  EXPECT_FALSE(result.mod_nonempty);
}

TEST(CertainAnswersTest, ConditionRestrictsWorlds) {
  // T = {(x) | x != 0}: the only world is {1}; certain answer = {1}.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow(CRow{{Cell(V(0))}, Condition::VarNeqConst(V(0), I(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  AdomContext adom = prepared.BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result, CertainAnswers(fx.q, t, prepared, adom));
  EXPECT_TRUE(result.mod_nonempty);
  // Worlds: x=0 drops the row → {}; x=1 → {1}. Intersection is empty.
  EXPECT_TRUE(result.answers.empty());
}

TEST(EvalOverAdomDeathTest, AFailedEvaluationAborts) {
  // Every decider checks Q at entry (CheckQuery), after which Query::Eval
  // cannot fail under EvalOverAdom. If it fails anyway, the process stops
  // with the status instead of answering, in every build.
  BoolFixture fx;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  const Instance db(fx.setting.schema);
  const AdomContext adom = prepared.BuildAdomForGround(db, nullptr);
  const Query ghost = Query::Cq(
      ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"Nope", {V(0)}}}));
  EXPECT_DEATH(EvalOverAdom(ghost, db, adom),
               "relcomp: query evaluation failed: InvalidArgument: query "
               "references unknown relation 'Nope'");
}

TEST(StatusTest, CodesAndMessages) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status bad = Status::InvalidArgument("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.ToString().find("boom"), std::string::npos);
  EXPECT_EQ(std::string(StatusCodeName(StatusCode::kUndecidable)),
            "Undecidable");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(7), 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(InternerTest, StableIdsAndNames) {
  SymbolId a = InternSymbol("alpha-test-symbol");
  SymbolId b = InternSymbol("alpha-test-symbol");
  EXPECT_EQ(a, b);
  EXPECT_EQ(SymbolName(a), "alpha-test-symbol");
  SymbolId c = InternSymbol("beta-test-symbol");
  EXPECT_NE(a, c);
}

std::string NumberedName(const char* prefix, int i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%06d", prefix, i);
  return buf;
}

TEST(InternerTest, IdsStayDenseAndStableAcrossArenaAndIndexGrowth) {
  // 40k names of ~30 bytes fill many 64 KiB arena chunks and grow the
  // index from its first 1024 slots several times.
  constexpr int kNames = 40000;
  const size_t before = InternedSymbolCount();
  std::vector<SymbolId> ids;
  for (int i = 0; i < kNames; ++i) {
    const size_t count = InternedSymbolCount();
    ids.push_back(InternSymbol(NumberedName("interner-growth-name", i)));
    EXPECT_EQ(InternedSymbolCount(), count + 1);
  }
  for (int i = 0; i < kNames; ++i) {
    ASSERT_EQ(ids[static_cast<size_t>(i)], before + static_cast<size_t>(i));
  }
  // Interning again returns the same ids and adds nothing.
  for (int i = 0; i < kNames; ++i) {
    const std::string name = NumberedName("interner-growth-name", i);
    ASSERT_EQ(InternSymbol(name), ids[static_cast<size_t>(i)]);
    ASSERT_EQ(SymbolName(ids[static_cast<size_t>(i)]), name);
  }
  EXPECT_EQ(InternedSymbolCount(), before + kNames);
}

TEST(InternerTest, EmptyLongAndPrefixSharingNames) {
  const SymbolId empty = InternSymbol("");
  EXPECT_EQ(SymbolName(empty), "");
  EXPECT_EQ(InternSymbol(std::string()), empty);

  // Longer than an arena chunk: stored on its own, next to the chunk in use.
  const std::string huge(70000, 'q');
  const SymbolId huge_id = InternSymbol(huge);
  const SymbolId after = InternSymbol("interner-after-the-huge-name");
  EXPECT_EQ(SymbolName(huge_id), huge);
  EXPECT_EQ(SymbolName(after), "interner-after-the-huge-name");
  EXPECT_EQ(InternSymbol(huge), huge_id);
  EXPECT_NE(InternSymbol(huge + "q"), huge_id);

  // Names that share long prefixes, and names that are prefixes of others.
  const std::string prefix(200, 'p');
  std::vector<SymbolId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(InternSymbol(prefix + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(SymbolName(ids[static_cast<size_t>(i)]),
              prefix + std::to_string(i));
  }
  const SymbolId ab = InternSymbol("interner-ab");
  const SymbolId abc = InternSymbol("interner-abc");
  const SymbolId a = InternSymbol("interner-a");
  EXPECT_NE(ab, abc);
  EXPECT_NE(ab, a);
  EXPECT_EQ(SymbolName(ab), "interner-ab");
  EXPECT_EQ(SymbolName(abc), "interner-abc");
  EXPECT_EQ(SymbolName(a), "interner-a");
}

TEST(InternerTest, ConcurrentInternsGetOneIdPerName) {
  // Four threads intern overlapping ranges of new names in different orders
  // and read names back while the others grow the table.
  constexpr int kThreads = 4;
  constexpr int kSpan = 6000;
  constexpr int kStride = 2000;
  const size_t before = InternedSymbolCount();
  std::vector<std::vector<SymbolId>> seen(kThreads);
  std::vector<int> names_ok(kThreads, 0);  // not vector<bool>: one word each
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<SymbolId>& ids = seen[static_cast<size_t>(t)];
      ids.resize(kSpan);
      bool ok = true;
      for (int k = 0; k < kSpan; ++k) {
        const int j = t % 2 == 0 ? k : kSpan - 1 - k;
        const std::string name =
            NumberedName("interner-concurrent", t * kStride + j);
        const SymbolId id = InternSymbol(name);
        ids[static_cast<size_t>(j)] = id;
        ok = ok && SymbolName(id) == name;
      }
      names_ok[static_cast<size_t>(t)] = ok ? 1 : 0;
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Names t·kStride + j; every name is seen by up to three threads.
  const int distinct = (kThreads - 1) * kStride + kSpan;
  std::vector<SymbolId> by_name(static_cast<size_t>(distinct), kNoId);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(names_ok[static_cast<size_t>(t)], 1) << "thread " << t;
    for (int j = 0; j < kSpan; ++j) {
      const SymbolId id = seen[static_cast<size_t>(t)][static_cast<size_t>(j)];
      SymbolId& first = by_name[static_cast<size_t>(t * kStride + j)];
      if (first == kNoId) first = id;
      ASSERT_EQ(id, first) << "name " << t * kStride + j;
    }
  }
  EXPECT_EQ(InternedSymbolCount(), before + static_cast<size_t>(distinct));
  std::vector<SymbolId> sorted = by_name;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(sorted.front(), before);
  EXPECT_EQ(sorted.back(), before + static_cast<size_t>(distinct) - 1);
}

TEST(InternerTest, NamesReadWithoutTheLockWhileOthersIntern) {
  // Two threads intern fresh names, crossing record-block boundaries, while
  // two others read back the names of ids already counted (SymbolName takes
  // no lock) and check that each name interns to its own id again.
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kNamesPerWriter = 20000;
  constexpr size_t kWindow = 32;  // ids read per reader pass
  std::atomic<int> writers_left{kWriters};
  std::vector<size_t> reads(kReaders, 0);
  std::vector<size_t> mismatches(kReaders, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int k = 0; k < kNamesPerWriter; ++k) {
        InternSymbol(NumberedName(
            w == 0 ? "interner-lockfree-a" : "interner-lockfree-b", k));
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      do {
        const size_t count = InternedSymbolCount();
        for (size_t id = count > kWindow ? count - kWindow : 0; id < count;
             ++id) {
          const std::string name(SymbolName(static_cast<SymbolId>(id)));
          if (InternSymbol(name) != id) ++mismatches[static_cast<size_t>(r)];
          ++reads[static_cast<size_t>(r)];
        }
      } while (writers_left.load() > 0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_GT(reads[static_cast<size_t>(r)], 0u) << "reader " << r;
    EXPECT_EQ(mismatches[static_cast<size_t>(r)], 0u) << "reader " << r;
  }
  for (int k = 0; k < kNamesPerWriter; k += 997) {
    const std::string name = NumberedName("interner-lockfree-b", k);
    EXPECT_EQ(SymbolName(InternSymbol(name)), name);
  }
}

TEST(StatsTest, ToStringListsCounters) {
  SearchStats stats;
  stats.valuations = 3;
  stats.worlds = 2;
  std::string s = stats.ToString();
  EXPECT_NE(s.find("valuations=3"), std::string::npos);
  EXPECT_NE(s.find("worlds=2"), std::string::npos);
}

TEST(WitnessTest, ToStringMentionsPieces) {
  BoolFixture fx;
  CompletenessWitness w;
  w.note = "a note";
  w.world = Instance(fx.setting.schema);
  w.world.AddTuple("B", {I(0)});
  w.extension = w.world;
  w.extension.AddTuple("B", {I(1)});
  w.answer = {I(1)};
  std::string s = w.ToString();
  EXPECT_NE(s.find("a note"), std::string::npos);
  EXPECT_NE(s.find("(1)"), std::string::npos);
}

}  // namespace
}  // namespace relcomp
