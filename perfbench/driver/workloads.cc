#include "driver/workloads.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "reductions/examples_fig1.h"

namespace relcomp {
namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Unit();
  size_t lo = 0;
  size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

Value S(const std::string& s) { return Value::Sym(s); }

std::string Format(const char* format, const std::string& prefix,
                   uint64_t number) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, prefix.c_str(),
                static_cast<unsigned long long>(number));
  return buf;
}

/// A seed-derived tag of fixed width, so constants have the same length
/// under every seed.
std::string SeedTag(uint64_t seed, char lead) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%c%05llx", lead,
                static_cast<unsigned long long>(Rng(seed).Next() & 0xfffff));
  return buf;
}

std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  return perm;
}

// ------------------------------------------------------------ strong-audit --

/// Closed-world London visits appended to the Fig. 1 c-table, with
/// constants unique to the request. London rows are outside every EDI CC
/// and carry fresh NHS numbers, so Q1 stays strongly complete (Example
/// 2.3), while the request's fingerprint and Adom constants change.
constexpr int kStrongExtraRows = 1;

void StrongAudit(uint64_t seed, Workload* w) {
  auto fx = std::make_shared<const PatientsFixture>(MakePatientsFixture());
  w->options.num_workers = 2;
  w->tenants.push_back(Tenant{fx->setting, ShardOptions{}});
  w->replay_calls = 12;

  struct State {
    Rng rng;
    uint32_t base;
    uint32_t next_id = 0;
  };
  auto state = std::make_shared<State>(State{
      Rng(seed ^ 0x57a0d17ULL), static_cast<uint32_t>(Rng(seed).Next()), 0});
  w->next = [fx, state]() {
    static const char* const kDates[] = {"15/03/2015", "16/03/2015"};
    static const char* const kDiags[] = {"Flu", "Diabetes", "Influenza"};
    static const char* const kDoctors[] = {"01", "02", "03"};
    Rng& rng = state->rng;
    auto made = std::make_shared<Item>();
    Item& item = *made;
    item.id = state->next_id++;
    item.tenant = 0;
    item.request = DecisionRequest{};
    item.request.kind = ProblemKind::kRcdpStrong;
    item.request.query = fx->q1;
    item.request.cinstance = fx->ctable;  // t1..t5: x, z, w, u missing
    for (int row = 0; row < kStrongExtraRows; ++row) {
      // An odd multiplier makes the tag a bijection of the row ordinal:
      // no constant repeats within a stream.
      const uint32_t tag =
          state->base + 0x9e3779b1u * (item.id * kStrongExtraRows + row);
      char nhs[16];
      char name[16];
      std::snprintf(nhs, sizeof(nhs), "7%08x", tag);
      std::snprintf(name, sizeof(name), "N%08x", tag);
      item.request.cinstance.at("MVisit").AddRow(
          {S(nhs), S(name), S("LON"),
           Value::Int(1999 + static_cast<int64_t>(rng.Below(4))),
           S(rng.Below(2) == 0 ? "M" : "F"), S(kDates[rng.Below(2)]),
           S(kDiags[rng.Below(3)]), S(kDoctors[rng.Below(3)])});
    }
    item.expected = true;
    return std::shared_ptr<const Item>(std::move(made));
  };
}

// ------------------------------------------------------ ENG-B audit family --
// Visit(nhs, city ∈ {EDI, LON}, year ∈ [1998, 2001]), a Patientm(nhs)
// master, and the IND π_nhs(Visit) ⊆ Patientm. Queries ask which cities a
// patient visited: q(c) :- Visit(P, c, y).

constexpr ProblemKind kCheapKinds[4] = {
    ProblemKind::kRcdpStrong, ProblemKind::kRcdpViable,
    ProblemKind::kRcqpStrong, ProblemKind::kMinpStrong};

struct AuditFamily {
  std::string prefix;
  int master_rows = 0;

  std::string Patient(int i) const { return Format("%s-%06llu", prefix, i); }
};

PartiallyClosedSetting MakeAuditSetting(const AuditFamily& family) {
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()},
                Attribute{"city", Domain::Finite({S("EDI"), S("LON")})},
                Attribute{"year", Domain::IntRange(1998, 2001)}}));
  setting.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  for (int i = 0; i < family.master_rows; ++i) {
    setting.dm.AddTuple("Patientm", {S(family.Patient(i))});
  }
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}, VarId{1}, VarId{2}}}});
  setting.ccs.emplace_back("visits_known", std::move(proj), "Patientm",
                           std::vector<int>{0});
  return setting;
}

/// One audit: a small ground instance of visits by master patients, and the
/// patient the query asks about.
struct Audit {
  Instance db;
  std::string patient;
  bool patient_in_master = false;
};

/// The verdict each cheap kind must return on `audit`, from the
/// definitions. T is ground and satisfies V, so its only world is T itself
/// and strong ⇔ viable. An extension may add Visit(P, c, y) for any city c
/// exactly when P is a master patient, so T is complete iff P is outside
/// the master or T already has P's visits to both cities. Every head
/// variable sits in a finite column, so a complete instance always exists
/// (Corollary 7.2). T is minimally complete iff it is complete and no
/// single-tuple removal stays complete: exactly P's two visits, one per
/// city.
bool ExpectedVerdict(ProblemKind kind, const Audit& audit) {
  const Value patient = S(audit.patient);
  bool edi = false;
  bool lon = false;
  for (const Tuple& t : audit.db.at("Visit").rows()) {
    if (!(t[0] == patient)) continue;
    if (t[1] == S("EDI")) {
      edi = true;
    } else {
      lon = true;
    }
  }
  const bool complete = !audit.patient_in_master || (edi && lon);
  switch (kind) {
    case ProblemKind::kRcdpStrong:
    case ProblemKind::kRcdpViable:
      return complete;
    case ProblemKind::kRcqpStrong:
      return true;
    case ProblemKind::kMinpStrong:
      return audit.patient_in_master && edi && lon &&
             audit.db.TotalTuples() == 2;
    default:
      return false;
  }
}

/// Audit `category` (0-3) of a family: the patient has visits to both
/// cities (0), one city or none (1), none (2), or is not a master patient
/// (3). `triple` adds a third visit by another patient, which makes every
/// instance non-minimal.
Audit MakeAudit(const AuditFamily& family, const DatabaseSchema& schema,
                Rng& rng, int category, bool triple,
                const std::string& outsider) {
  const uint64_t rows = static_cast<uint64_t>(family.master_rows);
  const int a = static_cast<int>(rng.Below(rows));
  int b = a;
  while (b == a) b = static_cast<int>(rng.Below(rows));
  int c = a;
  while (c == a || c == b) c = static_cast<int>(rng.Below(rows));
  auto year = [&rng] {
    return Value::Int(1998 + static_cast<int64_t>(rng.Below(4)));
  };
  Audit audit;
  audit.db = Instance(schema);
  audit.db.AddTuple("Visit", {S(family.Patient(a)), S("EDI"), year()});
  audit.db.AddTuple("Visit", {S(family.Patient(a)), S("LON"), year()});
  if (triple) {
    audit.db.AddTuple("Visit", {S(family.Patient(b)),
                                S(rng.Below(2) == 0 ? "EDI" : "LON"), year()});
  }
  audit.patient_in_master = category != 3;
  switch (category) {
    case 0:
      audit.patient = family.Patient(a);
      break;
    case 1:
      audit.patient = family.Patient(triple ? b : c);
      break;
    case 2:
      audit.patient = family.Patient(c);
      break;
    default:
      audit.patient = outsider;
      break;
  }
  return audit;
}

Item AuditItem(uint32_t id, size_t tenant, ProblemKind kind,
               const Audit& audit, bool witness) {
  Item item;
  item.id = id;
  item.tenant = tenant;
  item.request.kind = kind;
  item.request.query = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{0})},
      {RelAtom{"Visit", {CTerm(S(audit.patient)), CTerm(VarId{0}),
                         CTerm(VarId{1})}}}));
  item.request.cinstance = CInstance::FromInstance(audit.db);
  item.request.want_witness = witness;
  item.expected = ExpectedVerdict(kind, audit);
  return item;
}

// -------------------------------------------------------------- hot-repeat --

constexpr int kHotMasterRows[] = {8192, 16384};
constexpr int kHotTenants = sizeof(kHotMasterRows) / sizeof(kHotMasterRows[0]);
constexpr int kHotAuditsPerTenant = 64;
constexpr double kHotZipfS = 1.0;

void HotRepeat(uint64_t seed, Workload* w) {
  Rng rng(seed ^ 0x407e9ea7ULL);
  w->options.num_workers = 2;
  w->warm_start = true;
  w->replay_calls = 2000;
  auto working_set = std::make_shared<std::vector<Item>>();
  for (int k = 0; k < kHotTenants; ++k) {
    const AuditFamily family{SeedTag(seed + static_cast<uint64_t>(k), 'h'),
                             kHotMasterRows[k]};
    w->tenants.push_back(Tenant{MakeAuditSetting(family), ShardOptions{}});
    const DatabaseSchema& schema = w->tenants.back().setting.schema;
    for (int j = 0; j < kHotAuditsPerTenant; ++j) {
      // Every audit has three visits: a hit's cost grows with the size of
      // the instance it fingerprints, and mixed sizes would put p50 between
      // two cost clusters.
      const Audit audit = MakeAudit(family, schema, rng, j % 4, /*triple=*/true,
                                    Format("%s-x%05llu", family.prefix, j));
      for (ProblemKind kind : kCheapKinds) {
        working_set->push_back(
            AuditItem(static_cast<uint32_t>(working_set->size()),
                      static_cast<size_t>(k), kind, audit, false));
      }
    }
  }
  w->working_set = working_set;

  // Zipf over audits (ranks shuffled per seed); kinds in fixed rotation, so
  // each kind carries exactly a quarter of the traffic under every seed.
  struct State {
    Rng rng;
    Zipf zipf;
    std::vector<size_t> rank_to_audit;
    uint64_t seq = 0;
  };
  const size_t audits = static_cast<size_t>(kHotTenants * kHotAuditsPerTenant);
  auto state = std::make_shared<State>(
      State{Rng(seed ^ 0x2c1b3c6dULL), Zipf(audits, kHotZipfS),
            Permutation(audits, rng), 0});
  w->next = [state, working_set]() {
    const size_t audit = state->rank_to_audit[state->zipf.Draw(state->rng)];
    const size_t kind = state->seq++ % 4;
    return std::shared_ptr<const Item>(working_set,
                                       &(*working_set)[audit * 4 + kind]);
  };
}

// ------------------------------------------------------------ tenant-churn --

constexpr int kChurnMasterRows[] = {512, 2048, 8192, 24576};
constexpr uint32_t kChurnWeights[] = {4, 3, 2, 1};
constexpr int kChurnTenants =
    sizeof(kChurnMasterRows) / sizeof(kChurnMasterRows[0]);
constexpr int kChurnAuditsPerTenant = 96;
constexpr double kChurnZipfS = 1.0;
constexpr double kChurnScanShare = 0.1;
constexpr size_t kChurnCacheEntries = 64;
constexpr size_t kChurnBudgetBytes = 192 * 1024;

void TenantChurn(uint64_t seed, Workload* w) {
  Rng rng(seed ^ 0x7e4a47c4ULL);
  w->options.num_workers = 2;
  w->options.policy = sched::SchedPolicy::kFairShare;
  w->options.cache_budget_bytes = kChurnBudgetBytes;
  w->batch = 32;
  w->replay_calls = 8;

  struct TenantAudits {
    AuditFamily family;
    std::vector<Audit> audits;
  };
  auto tenants = std::make_shared<std::vector<TenantAudits>>();
  auto working_set = std::make_shared<std::vector<Item>>();
  for (int k = 0; k < kChurnTenants; ++k) {
    TenantAudits t{AuditFamily{SeedTag(seed + static_cast<uint64_t>(k), 't'),
                               kChurnMasterRows[k]},
                   {}};
    ShardOptions options;
    options.weight = kChurnWeights[k];
    options.cache_capacity = kChurnCacheEntries;
    w->tenants.push_back(Tenant{MakeAuditSetting(t.family), options});
    const DatabaseSchema& schema = w->tenants.back().setting.schema;
    for (int j = 0; j < kChurnAuditsPerTenant; ++j) {
      t.audits.push_back(MakeAudit(t.family, schema, rng, j % 4,
                                   (j / 4) % 2 == 1,
                                   Format("%s-x%05llu", t.family.prefix, j)));
      for (ProblemKind kind : kCheapKinds) {
        for (bool witness : {false, true}) {
          working_set->push_back(
              AuditItem(static_cast<uint32_t>(working_set->size()),
                        static_cast<size_t>(k), kind, t.audits.back(),
                        witness));
        }
      }
    }
    tenants->push_back(std::move(t));
  }
  w->working_set = working_set;

  // Batches cycle the tenants; per tenant, kinds rotate and every other
  // group of four asks for a witness. One request in ten is a one-shot scan
  // key: a patient outside the master that is never asked about again.
  struct State {
    Rng rng;
    Zipf zipf;
    std::vector<std::vector<size_t>> rank_to_audit;
    uint64_t slot = 0;
    uint64_t tenant_seq[kChurnTenants] = {};
    uint32_t next_scan_id;
  };
  auto state = std::make_shared<State>(
      State{Rng(seed ^ 0x6b8b4567ULL), Zipf(kChurnAuditsPerTenant, kChurnZipfS),
            {}, 0, {}, static_cast<uint32_t>(working_set->size())});
  for (int k = 0; k < kChurnTenants; ++k) {
    state->rank_to_audit.push_back(Permutation(kChurnAuditsPerTenant, rng));
  }
  w->next = [state, tenants,
             working_set]() -> std::shared_ptr<const Item> {
    const size_t tenant = state->slot++ % kChurnTenants;
    const uint64_t seq = state->tenant_seq[tenant]++;
    const size_t kind = seq % 4;
    const bool witness = (seq / 4) % 2 == 1;
    if (state->rng.Unit() < kChurnScanShare) {
      const TenantAudits& t = (*tenants)[tenant];
      Audit audit = t.audits[state->rng.Below(t.audits.size())];
      audit.patient =
          Format("%s-s%08llx", t.family.prefix, state->next_scan_id);
      audit.patient_in_master = false;
      return std::make_shared<const Item>(AuditItem(
          state->next_scan_id++, tenant, kCheapKinds[kind], audit, witness));
    }
    const size_t audit =
        tenant * kChurnAuditsPerTenant +
        state->rank_to_audit[tenant][state->zipf.Draw(state->rng)];
    return std::shared_ptr<const Item>(
        working_set,
        &(*working_set)[(audit * 4 + kind) * 2 + (witness ? 1 : 0)]);
  };
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "strong-audit") {
    StrongAudit(seed, out);
  } else if (name == "hot-repeat") {
    HotRepeat(seed, out);
  } else if (name == "tenant-churn") {
    TenantChurn(seed, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
}  // namespace relcomp
