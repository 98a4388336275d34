// The cache lifecycle subsystem: the Decision weigher, the byte-weighted
// segmented ShardCache (scan resistance, frequency-sketch admission), the
// shared cross-shard CacheBudget (hard byte invariant, coldest-shard-first
// victims, starvation floors), the versioned snapshot format (round trip,
// corruption / stale-fingerprint rejection), and the service-level warm
// start (SaveCaches → restart → RegisterSetting serves yesterday's decision
// as a hit with zero evaluations).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/budget.h"
#include "cache/persist.h"
#include "cache/shard_cache.h"
#include "cache/weigher.h"
#include "service/service.h"
#include "test_util.h"
#include "util/hash.h"

namespace relcomp {
namespace {

using testing::S;

// --------------------------------------------------------------- weigher --

Decision BareDecision() {
  Decision decision;
  decision.answer = true;
  return decision;
}

Decision WitnessDecision() {
  Decision decision;
  decision.answer = false;
  decision.note = "counterexample attached";
  auto witness = std::make_shared<CompletenessWitness>();
  Instance world(testing::EdgeSchema());
  for (int i = 0; i < 16; ++i) {
    world.AddTuple("E",
                   {Value::Int(i), S(("node-" + std::to_string(i)).c_str())});
  }
  witness->world = world;
  witness->extension = world;
  witness->answer = {Value::Int(1), Value::Int(2)};
  witness->note = "world and extension disagree";
  decision.witness = witness;
  return decision;
}

TEST(WeigherTest, DeepWitnessDominatesBareVerdicts) {
  const size_t bare = cache::WeighDecision(BareDecision());
  Decision noted = BareDecision();
  noted.note = std::string(256, 'n');
  const size_t with_note = cache::WeighDecision(noted);
  const size_t with_witness = cache::WeighDecision(WitnessDecision());

  EXPECT_GE(bare, sizeof(Decision));
  EXPECT_EQ(with_note, bare + 256);  // note bytes charged exactly
  // The witness payload (two 16-row instances + schemas) dwarfs the verdict.
  EXPECT_GT(with_witness, bare + 500);
  // Deterministic: the same decision always weighs the same.
  EXPECT_EQ(cache::WeighDecision(WitnessDecision()),
            cache::WeighDecision(WitnessDecision()));
}

// ------------------------------------------------------------ ShardCache --

RequestCacheKey Key(uint64_t i) {
  return RequestCacheKey{i + 1, (i + 1) * 0x9e3779b97f4a7c15ULL};
}

Decision PaddedDecision(uint64_t id, size_t note_bytes) {
  Decision decision;
  decision.answer = (id % 2) == 0;
  decision.note = std::string(note_bytes, static_cast<char>('a' + id % 26));
  return decision;
}

TEST(ShardCacheTest, ZeroCapacityIsDisabled) {
  cache::ShardCache cache(0);
  EXPECT_FALSE(cache.Put(Key(1), BareDecision()));
  Decision out;
  EXPECT_FALSE(cache.Get(Key(1), &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardCacheTest, GetCopiesTheDecisionAndCountsHits) {
  cache::ShardCache cache(8);
  ASSERT_TRUE(cache.Put(Key(1), PaddedDecision(1, 32)));
  Decision out;
  ASSERT_TRUE(cache.Get(Key(1), &out));
  EXPECT_EQ(out.note, std::string(32, 'b'));
  EXPECT_FALSE(cache.Get(Key(2), &out));
  const cache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.5);
  EXPECT_GT(stats.bytes, cache::kEntryOverheadBytes);
}

TEST(ShardCacheTest, ReReferencedEntrySurvivesOneShotScan) {
  // Segmented LRU: A is promoted to the protected segment by its second
  // touch; a scan of one-shot keys then churns probation around it.
  cache::ShardCache cache(4);
  ASSERT_TRUE(cache.Put(Key(0), PaddedDecision(0, 16)));
  Decision out;
  ASSERT_TRUE(cache.Get(Key(0), &out));  // promote
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(cache.Put(Key(i), PaddedDecision(i, 16)));
  }
  for (uint64_t scan = 10; scan < 18; ++scan) {
    cache.Put(Key(scan), PaddedDecision(scan, 16));  // one-shot flood
  }
  EXPECT_TRUE(cache.Get(Key(0), &out)) << "hot entry flushed by a scan";
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ShardCacheTest, AdmissionRefusesColdCandidateAgainstHotVictim) {
  cache::ShardCache cache(2);
  ASSERT_TRUE(cache.Put(Key(1), PaddedDecision(1, 16)));
  Decision out;
  ASSERT_TRUE(cache.Get(Key(1), &out));
  ASSERT_TRUE(cache.Get(Key(1), &out));  // key 1 is hot
  ASSERT_TRUE(cache.Put(Key(2), PaddedDecision(2, 16)));
  ASSERT_TRUE(cache.Get(Key(2), &out));  // both resident entries protected
  // A cold one-shot candidate would displace a hot entry: refused.
  EXPECT_FALSE(cache.Put(Key(3), PaddedDecision(3, 16)));
  EXPECT_EQ(cache.stats().admission_rejects, 1u);
  EXPECT_TRUE(cache.Get(Key(1), &out));
  EXPECT_TRUE(cache.Get(Key(2), &out));
  EXPECT_FALSE(cache.Get(Key(3), &out));
}

TEST(ShardCacheTest, SnapshotEntriesOrderedColdestFirst) {
  cache::ShardCache cache(8);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.Put(Key(i), PaddedDecision(i, 8)));
  }
  Decision out;
  ASSERT_TRUE(cache.Get(Key(1), &out));  // 1 becomes the hottest (protected)
  auto entries = cache.SnapshotEntries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().first, Key(0));  // coldest: first-in, untouched
  EXPECT_EQ(entries.back().first, Key(1));   // hottest last
}

// ----------------------------------------------------------- CacheBudget --

struct BudgetedCache {
  std::shared_ptr<cache::ShardCache> cache;
};

std::shared_ptr<cache::ShardCache> MakeBudgeted(cache::CacheBudget* budget,
                                                size_t max_entries,
                                                size_t floor_bytes) {
  auto shard = std::make_shared<cache::ShardCache>(max_entries);
  shard->AttachBudget(budget, shard, floor_bytes);
  return shard;
}

TEST(CacheBudgetTest, ColdestShardIsEvictedFirst) {
  // ~600-byte entries; budget fits about six of them.
  const size_t kNote = 512;
  const size_t kEntry = cache::WeighDecision(PaddedDecision(0, kNote)) +
                        cache::kEntryOverheadBytes;
  cache::CacheBudget budget(6 * kEntry);
  auto cold = MakeBudgeted(&budget, 64, /*floor=*/0);
  auto warm = MakeBudgeted(&budget, 64, /*floor=*/0);

  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(cold->Put(Key(i), PaddedDecision(i, kNote)));
  }
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(warm->Put(Key(100 + i), PaddedDecision(i, kNote)));
  }
  // Touch everything in `warm` so `cold`'s tail is globally the oldest.
  Decision out;
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(warm->Get(Key(100 + i), &out));

  // Budget is full: the next insert (into warm) must evict from COLD, not
  // from the freshly touched warm shard.
  ASSERT_TRUE(warm->Put(Key(200), PaddedDecision(0, kNote)));
  EXPECT_LE(budget.used_bytes(), budget.budget_bytes());
  EXPECT_LT(cold->size(), 3u);
  EXPECT_EQ(warm->size(), 4u);
  EXPECT_GT(cold->stats().evictions, 0u);
  EXPECT_EQ(warm->stats().evictions, 0u);
}

TEST(CacheBudgetTest, FloorShieldsATenantFromPeerPressure) {
  const size_t kNote = 512;
  const size_t kEntry = cache::WeighDecision(PaddedDecision(0, kNote)) +
                        cache::kEntryOverheadBytes;
  cache::CacheBudget budget(6 * kEntry);
  // The protected tenant's floor covers two entries.
  auto shielded = MakeBudgeted(&budget, 64, /*floor=*/2 * kEntry);
  auto greedy = MakeBudgeted(&budget, 64, /*floor=*/0);

  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(shielded->Put(Key(i), PaddedDecision(i, kNote)));
  }
  // Flood from the greedy tenant, far past the budget.
  for (uint64_t i = 0; i < 12; ++i) {
    greedy->Put(Key(100 + i), PaddedDecision(i, kNote));
    EXPECT_LE(budget.used_bytes(), budget.budget_bytes());
  }
  // The shielded tenant was evicted down to — but never below — its floor.
  EXPECT_GE(shielded->bytes(), 2 * kEntry);
  EXPECT_LE(shielded->size(), 2u);
  // The greedy tenant self-sheds once everyone else sits at its floor.
  EXPECT_GT(greedy->stats().evictions, 0u);
}

TEST(CacheBudgetTest, RefusedOverwriteLeavesTheOldEntryServing) {
  cache::CacheBudget budget(1024);
  auto shard = MakeBudgeted(&budget, 64, 0);
  ASSERT_TRUE(shard->Put(Key(1), PaddedDecision(1, 64)));
  // The replacement can never fit the budget: refused — and the resident
  // entry must keep serving, not be half-removed by the attempted swap.
  EXPECT_FALSE(shard->Put(Key(1), PaddedDecision(1, 4096)));
  Decision out;
  ASSERT_TRUE(shard->Get(Key(1), &out));
  EXPECT_EQ(out.note, std::string(64, 'b'));
  EXPECT_EQ(shard->stats().admission_rejects, 1u);
}

TEST(CacheBudgetTest, OversizedEntryIsRefusedOutright) {
  cache::CacheBudget budget(1024);
  auto shard = MakeBudgeted(&budget, 64, 0);
  EXPECT_FALSE(shard->Put(Key(1), PaddedDecision(1, 4096)));
  EXPECT_EQ(shard->stats().admission_rejects, 1u);
  EXPECT_EQ(budget.used_bytes(), 0u);
  // A fitting entry still goes in afterwards.
  EXPECT_TRUE(shard->Put(Key(2), PaddedDecision(2, 64)));
}

TEST(CacheBudgetTest, RefusedInsertNeverSacrificesResidentEntries) {
  // A refused Put must leave the cache UNCHANGED: in particular, a FULL
  // cache must not pre-evict an entry for an insert the budget then
  // refuses — reservation comes before any eviction.
  cache::CacheBudget budget(2048);
  auto shard = MakeBudgeted(&budget, /*max_entries=*/2, 0);
  ASSERT_TRUE(shard->Put(Key(1), PaddedDecision(1, 64)));
  ASSERT_TRUE(shard->Put(Key(2), PaddedDecision(2, 64)));
  ASSERT_EQ(shard->size(), 2u);
  EXPECT_FALSE(shard->Put(Key(3), PaddedDecision(3, 8192)));  // can never fit
  EXPECT_EQ(shard->size(), 2u);
  Decision out;
  EXPECT_TRUE(shard->Get(Key(1), &out));
  EXPECT_TRUE(shard->Get(Key(2), &out));
  EXPECT_EQ(shard->stats().evictions, 0u);
}

TEST(CacheBudgetTest, ConcurrentInsertsNeverExceedTheBudget) {
  const size_t kNote = 256;
  const size_t kBudget = 16 * 1024;
  cache::CacheBudget budget(kBudget);
  auto a = MakeBudgeted(&budget, 256, /*floor=*/1024);
  auto b = MakeBudgeted(&budget, 256, /*floor=*/1024);

  // TryCharge admits a reservation only within budget, under the ledger
  // lock, so the charged bytes — one atomic — never exceed the budget at
  // any sampled instant. Resident bytes (≤ charged: every entry is charged
  // before it materializes) are checked once the floods join: the two
  // caches' sizes are read under two different locks, so their sum while
  // the floods run is no consistent snapshot.
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      if (budget.used_bytes() > kBudget) violations.fetch_add(1);
      std::this_thread::yield();
    }
  });
  auto flood = [&](const std::shared_ptr<cache::ShardCache>& shard,
                   uint64_t base) {
    for (uint64_t i = 0; i < 200; ++i) {
      shard->Put(Key(base + i), PaddedDecision(i, kNote));
      Decision out;
      shard->Get(Key(base + (i / 2)), &out);
    }
  };
  std::thread ta(flood, a, 0);
  std::thread tb(flood, b, 10'000);
  ta.join();
  tb.join();
  stop.store(true);
  sampler.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_LE(a->bytes() + b->bytes(), kBudget);
  EXPECT_GE(a->bytes(), 1024u);  // floors held through the crossfire
  EXPECT_GE(b->bytes(), 1024u);
}

// ----------------------------------------------------------- persistence --

cache::Snapshot MakeSnapshot() {
  cache::Snapshot snapshot;
  cache::SnapshotShard shard;
  shard.setting_key = RequestCacheKey{0xfeedULL, 0xbeefULL};

  Decision witnessed = WitnessDecision();
  witnessed.stats.valuations = 42;
  witnessed.stats.query_evals = 7;
  Valuation mu(3);
  mu.Bind(VarId{0}, Value::Int(-5));
  mu.Bind(VarId{2}, S("bound"));
  auto witness = std::make_shared<CompletenessWitness>(*witnessed.witness);
  witness->world_valuation = mu;
  witnessed.witness = std::move(witness);
  shard.entries.emplace_back(Key(1), witnessed);

  Decision error;  // cacheable error verdicts round-trip too
  error.status = Status::Undecidable("FO strong completeness is undecidable");
  shard.entries.emplace_back(Key(2), error);

  snapshot.shards.push_back(std::move(shard));
  return snapshot;
}

TEST(PersistTest, SnapshotRoundTripsDeeply) {
  const cache::Snapshot snapshot = MakeSnapshot();
  const std::string bytes = cache::EncodeSnapshot(snapshot);
  Result<cache::Snapshot> decoded = cache::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->shards.size(), 1u);
  const cache::SnapshotShard& shard = decoded->shards[0];
  EXPECT_EQ(shard.setting_key, snapshot.shards[0].setting_key);
  ASSERT_EQ(shard.entries.size(), 2u);

  const Decision& witnessed = shard.entries[0].second;
  EXPECT_EQ(shard.entries[0].first, Key(1));
  EXPECT_TRUE(witnessed.status.ok());
  EXPECT_FALSE(witnessed.answer);
  EXPECT_EQ(witnessed.note, "counterexample attached");
  EXPECT_EQ(witnessed.stats.valuations, 42u);
  EXPECT_EQ(witnessed.stats.query_evals, 7u);
  ASSERT_NE(witnessed.witness, nullptr);
  const Decision original = snapshot.shards[0].entries[0].second;
  EXPECT_EQ(witnessed.witness->world, original.witness->world);
  EXPECT_EQ(witnessed.witness->extension, original.witness->extension);
  EXPECT_EQ(witnessed.witness->answer, original.witness->answer);
  EXPECT_EQ(witnessed.witness->note, original.witness->note);
  // Valuation bindings survive (including the unbound middle slot).
  EXPECT_EQ(witnessed.witness->world_valuation.Get(VarId{0}), Value::Int(-5));
  EXPECT_FALSE(witnessed.witness->world_valuation.Get(VarId{1}).has_value());
  EXPECT_EQ(witnessed.witness->world_valuation.Get(VarId{2}), S("bound"));

  const Decision& error = shard.entries[1].second;
  EXPECT_EQ(error.status.code(), StatusCode::kUndecidable);
  EXPECT_EQ(error.status.message(), "FO strong completeness is undecidable");
  EXPECT_EQ(error.witness, nullptr);
}

/// `v` as `n` little-endian bytes, the snapshot format's integer encoding.
std::string LittleEndian(uint64_t v, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  return out;
}

/// `payload` behind a valid header (magic, version 1, size, checksum), so
/// the payload's own defects reach the decoder past every header check.
std::string Sealed(const std::string& payload) {
  StableHasher checksum;
  checksum.Mix(payload.data(), payload.size());
  return std::string("RCCS") + LittleEndian(1, 4) +
         LittleEndian(payload.size(), 8) + LittleEndian(checksum.digest(), 8) +
         payload;
}

TEST(PersistTest, CorruptionAndTruncationAreRejected) {
  const std::string bytes = cache::EncodeSnapshot(MakeSnapshot());
  const std::string payload = bytes.substr(24);  // past the 24-byte header
  ASSERT_EQ(Sealed(payload), bytes) << "Sealed() no longer matches the format";

  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x5a;  // flip a payload byte
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  std::string bad_version = bytes;
  bad_version[4] = 99;  // version field follows the 4-byte magic
  // Shard count 1, setting key (7, 7), entry count 1, entry key (3, 3),
  // then a status code no build ever wrote.
  const std::string unknown_code =
      LittleEndian(1, 8) + LittleEndian(7, 8) + LittleEndian(7, 8) +
      LittleEndian(1, 8) + LittleEndian(3, 8) + LittleEndian(3, 8) +
      LittleEndian(999, 4);
  const struct {
    const char* what;
    std::string bytes;
    StatusCode code;
    const char* message;
  } cases[] = {
      {"flipped payload byte", corrupted, StatusCode::kCorruption, "checksum"},
      {"bad magic", bad_magic, StatusCode::kCorruption, "magic"},
      {"unknown status code", Sealed(unknown_code), StatusCode::kCorruption,
       "status code"},
      {"trailing bytes", Sealed(payload + '\0'), StatusCode::kCorruption,
       "trailing"},
      {"truncated file", bytes.substr(0, bytes.size() - 3),
       StatusCode::kDataLoss, "size mismatch"},
      {"truncated header", bytes.substr(0, 10), StatusCode::kDataLoss,
       "truncated"},
      {"truncated payload", Sealed(LittleEndian(1, 8)), StatusCode::kDataLoss,
       "truncated"},
      {"unsupported version", bad_version, StatusCode::kVersionMismatch,
       "version"},
  };
  for (const auto& c : cases) {
    Result<cache::Snapshot> decoded = cache::DecodeSnapshot(c.bytes);
    ASSERT_FALSE(decoded.ok()) << c.what;
    EXPECT_EQ(decoded.status().code(), c.code)
        << c.what << ": " << decoded.status().ToString();
    EXPECT_NE(decoded.status().message().find(c.message), std::string::npos)
        << c.what << ": " << decoded.status().ToString();
  }
}

TEST(PersistTest, SaveAndLoadSnapshotFile) {
  const std::string path = ::testing::TempDir() + "relcomp_cache_test.rccs";
  EXPECT_OK(cache::SaveSnapshot(MakeSnapshot(), path));
  Result<cache::Snapshot> loaded = cache::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->TotalEntries(), 2u);
  std::remove(path.c_str());
  EXPECT_EQ(cache::LoadSnapshot(path).status().code(), StatusCode::kNotFound);

  // A file in a directory that does not exist cannot be opened for writing.
  const Status unwritable = cache::SaveSnapshot(
      MakeSnapshot(),
      ::testing::TempDir() + "relcomp_no_such_dir/relcomp_cache_test.rccs");
  EXPECT_EQ(unwritable.code(), StatusCode::kIoError) << unwritable.ToString();
}

// --------------------------------------------------------- service level --

/// An audit setting with `master_rows` patients: RCDP-strong per-patient
/// queries answer "no" WITH a counterexample witness (worlds may add more
/// visits), so distinct queries produce distinct witness-heavy entries.
PartiallyClosedSetting MakeWitnessSetting(int master_rows) {
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()},
                Attribute{"city", Domain::Finite({S("EDI"), S("LON")})}}));
  setting.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  for (int i = 0; i < master_rows; ++i) {
    setting.dm.AddTuple("Patientm",
                        {Value::Sym("nhs-" + std::to_string(i))});
  }
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}, VarId{1}}}});
  setting.ccs.emplace_back("visits_known", std::move(proj), "Patientm",
                           std::vector<int>{0});
  return setting;
}

ServiceRequest WitnessRequest(SettingHandle handle,
                              const DatabaseSchema& schema, int patient) {
  Instance db(schema);
  db.AddTuple("Visit", {Value::Sym("nhs-0"), S("EDI")});
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{0})},
      {RelAtom{"Visit",
               {CTerm(Value::Sym("nhs-" + std::to_string(patient))),
                VarId{0}}}}));
  request.cinstance = CInstance::FromInstance(db);
  request.want_witness = true;
  return ServiceRequest{handle, std::move(request)};
}

uint64_t PartitionSum(const EngineCounters& counters) {
  return counters.cache_hits + counters.cache_misses + counters.rejected +
         counters.expired + counters.cancelled;
}

TEST(CacheLifecycleServiceTest, SharedBudgetHoldsAcrossTenantsUnderLoad) {
  // Two witness-heavy tenants over one small shared byte budget, inserting
  // concurrently: total cached bytes stay within the budget, the coldest
  // shard pays first, floors hold, and the request partition invariant
  // still balances. The two shards' sizes are read under two different
  // locks, so their sum is checked once the floods join (the ledger's own
  // invariant under concurrent inserts is CacheBudgetTest's).
  const size_t kBudget = 24 * 1024;
  const size_t kFloor = 2 * 1024;
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 1024;
  options.cache_budget_bytes = kBudget;
  CompletenessService service(options);

  ShardOptions shard_options;
  shard_options.cache_floor_bytes = kFloor;
  ASSERT_OK_AND_ASSIGN(
      handle_a, service.RegisterSetting(MakeWitnessSetting(32), shard_options));
  ASSERT_OK_AND_ASSIGN(
      handle_b, service.RegisterSetting(MakeWitnessSetting(48), shard_options));
  const DatabaseSchema schema = MakeWitnessSetting(32).schema;

  // Phase 1: warm tenant A past its floor.
  size_t witnessed = 0;
  for (int i = 0; i < 6; ++i) {
    Decision decision = service.Decide(WitnessRequest(handle_a, schema, i));
    ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
    EXPECT_FALSE(decision.answer);  // more visits are always possible
    if (decision.witness != nullptr) ++witnessed;
  }
  EXPECT_GT(witnessed, 0u) << "fixture is not witness-heavy";
  ASSERT_OK_AND_ASSIGN(stats_a_before, service.CacheStats(handle_a));
  ASSERT_GE(stats_a_before.bytes, kFloor) << "phase 1 must overfill the floor";

  // Phase 2: both tenants insert concurrently.
  std::thread flood_a([&] {
    for (int i = 6; i < 24; ++i) {
      service.Decide(WitnessRequest(handle_a, schema, i));
    }
  });
  std::thread flood_b([&] {
    for (int i = 0; i < 40; ++i) {
      service.Decide(WitnessRequest(handle_b, schema, i));
    }
  });
  flood_a.join();
  flood_b.join();

  ASSERT_OK_AND_ASSIGN(stats_a, service.CacheStats(handle_a));
  ASSERT_OK_AND_ASSIGN(stats_b, service.CacheStats(handle_b));
  EXPECT_LE(stats_a.bytes + stats_b.bytes, kBudget);
  EXPECT_GE(stats_a.bytes, kFloor);  // floors held
  EXPECT_GE(stats_b.bytes, kFloor);
  // Pressure evicted somebody — and the per-shard caches agree with the
  // overlaid EngineCounters view.
  EXPECT_GT(stats_a.evictions + stats_b.evictions, 0u);
  ASSERT_OK_AND_ASSIGN(counters_a, service.counters(handle_a));
  ASSERT_OK_AND_ASSIGN(counters_b, service.counters(handle_b));
  EXPECT_EQ(counters_a.evictions, stats_a.evictions);
  EXPECT_EQ(counters_b.cache_bytes, stats_b.bytes);
  // The scheduler partition invariant survives cache-lifecycle churn.
  EXPECT_EQ(counters_a.requests, PartitionSum(counters_a));
  EXPECT_EQ(counters_b.requests, PartitionSum(counters_b));
}

TEST(CacheLifecycleServiceTest, ColdTenantPaysBeforeTheActiveOne) {
  // Deterministic victim-selection check at the service level: tenant A
  // fills first and goes idle; tenant B's later inserts must evict A.
  ServiceOptions options;
  options.num_workers = 0;
  options.cache_budget_bytes = 8 * 1024;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle_a,
                       service.RegisterSetting(MakeWitnessSetting(32)));
  ASSERT_OK_AND_ASSIGN(handle_b,
                       service.RegisterSetting(MakeWitnessSetting(48)));
  const DatabaseSchema schema = MakeWitnessSetting(32).schema;

  for (int i = 0; i < 4; ++i) {
    service.Decide(WitnessRequest(handle_a, schema, i));
  }
  ASSERT_OK_AND_ASSIGN(before, service.CacheStats(handle_a));
  for (int i = 0; i < 24; ++i) {
    service.Decide(WitnessRequest(handle_b, schema, i));
  }
  ASSERT_OK_AND_ASSIGN(after_a, service.CacheStats(handle_a));
  ASSERT_OK_AND_ASSIGN(after_b, service.CacheStats(handle_b));
  EXPECT_LT(after_a.bytes, before.bytes) << "cold shard was not evicted";
  EXPECT_GT(after_a.evictions, 0u);
  EXPECT_GT(after_b.bytes, after_a.bytes);
}

TEST(CacheLifecycleServiceTest, WarmStartServesSnapshotDecisionsAsHits) {
  const std::string path = ::testing::TempDir() + "relcomp_warmstart.rccs";
  const PartiallyClosedSetting setting = MakeWitnessSetting(16);
  const DatabaseSchema schema = setting.schema;
  Decision original;
  {
    CompletenessService service(ServiceOptions{/*num_workers=*/0});
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
    original = service.Decide(WitnessRequest(handle, schema, 3));
    ASSERT_TRUE(original.status.ok()) << original.status.ToString();
    ASSERT_NE(original.witness, nullptr);
    service.Decide(WitnessRequest(handle, schema, 5));
    EXPECT_OK(service.SaveCaches(path));
  }
  {
    // "Restart": a fresh service loads the snapshot BEFORE the setting
    // registers; registration warm-starts the shard from the staged image.
    CompletenessService service(ServiceOptions{/*num_workers=*/0});
    ASSERT_OK_AND_ASSIGN(accepted, service.LoadCaches(path));
    EXPECT_EQ(accepted, 1u);
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
    ASSERT_OK_AND_ASSIGN(stats, service.CacheStats(handle));
    EXPECT_EQ(stats.restored, 2u);

    Decision restored = service.Decide(WitnessRequest(handle, schema, 3));
    EXPECT_TRUE(restored.from_cache) << restored.ToString();
    EXPECT_EQ(restored.status.code(), original.status.code());
    EXPECT_EQ(restored.answer, original.answer);
    ASSERT_NE(restored.witness, nullptr);
    EXPECT_EQ(restored.witness->world, original.witness->world);
    EXPECT_EQ(restored.witness->note, original.witness->note);

    // ZERO evaluations: the decision came from the snapshot, not a decider.
    ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
    EXPECT_EQ(counters.cache_misses, 0u);
    EXPECT_EQ(counters.cache_hits, 1u);
    EXPECT_EQ(counters.requests, PartitionSum(counters));
  }
  {
    // Stale fingerprint: different master data never matches the snapshot.
    CompletenessService service(ServiceOptions{/*num_workers=*/0});
    ASSERT_OK_AND_ASSIGN(accepted, service.LoadCaches(path));
    EXPECT_EQ(accepted, 1u);  // staged, but no taker
    ASSERT_OK_AND_ASSIGN(handle,
                         service.RegisterSetting(MakeWitnessSetting(17)));
    ASSERT_OK_AND_ASSIGN(stats, service.CacheStats(handle));
    EXPECT_EQ(stats.restored, 0u);
    Decision fresh = service.Decide(WitnessRequest(handle, schema, 3));
    EXPECT_FALSE(fresh.from_cache);
  }
  std::remove(path.c_str());
}

TEST(CacheLifecycleServiceTest, LoadAfterRegistrationRestoresLiveShard) {
  const std::string path = ::testing::TempDir() + "relcomp_warmlive.rccs";
  const PartiallyClosedSetting setting = MakeWitnessSetting(16);
  const DatabaseSchema schema = setting.schema;
  {
    CompletenessService service(ServiceOptions{/*num_workers=*/0});
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
    service.Decide(WitnessRequest(handle, schema, 1));
    EXPECT_OK(service.SaveCaches(path));
  }
  CompletenessService service(ServiceOptions{/*num_workers=*/0});
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
  ASSERT_OK_AND_ASSIGN(accepted, service.LoadCaches(path));  // AFTER register
  EXPECT_EQ(accepted, 1u);
  Decision restored = service.Decide(WitnessRequest(handle, schema, 1));
  EXPECT_TRUE(restored.from_cache);
  std::remove(path.c_str());
}

TEST(CacheLifecycleServiceTest, LoadIntoDisabledCacheCountsNothingApplied) {
  const std::string path = ::testing::TempDir() + "relcomp_warmoff.rccs";
  const PartiallyClosedSetting setting = MakeWitnessSetting(16);
  {
    CompletenessService service(ServiceOptions{/*num_workers=*/0});
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
    service.Decide(WitnessRequest(handle, setting.schema, 1));
    EXPECT_OK(service.SaveCaches(path));
  }
  ServiceOptions off;
  off.num_workers = 0;
  off.cache_capacity = 0;
  CompletenessService service(off);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
  // The image matches a LIVE shard whose cache is disabled: dropped, and
  // the "accepted" count must say so rather than claim a warm start.
  ASSERT_OK_AND_ASSIGN(accepted, service.LoadCaches(path));
  EXPECT_EQ(accepted, 0u);
  Decision fresh = service.Decide(WitnessRequest(handle, setting.schema, 1));
  EXPECT_FALSE(fresh.from_cache);
  std::remove(path.c_str());
}

TEST(CacheLifecycleServiceTest, ResolvedOptionsReportEffectiveCapacity) {
  // kInherit resolves to the service default.
  ServiceOptions on;
  on.num_workers = 0;
  on.cache_capacity = 512;
  CompletenessService service_on(on);
  ASSERT_OK_AND_ASSIGN(handle_on,
                       service_on.RegisterSetting(MakeWitnessSetting(8)));
  ASSERT_OK_AND_ASSIGN(resolved_on, service_on.shard_options(handle_on));
  EXPECT_EQ(resolved_on.cache_capacity, 512u);
}

}  // namespace
}  // namespace relcomp
