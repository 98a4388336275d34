#include "core/adom.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

namespace relcomp {
namespace {

void AddAll(std::vector<Value>* dst, const std::vector<Value>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

void SortUnique(std::vector<Value>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

bool Contains(const std::vector<Value>& sorted, const Value& v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

// Merges two disjoint sorted runs into one sorted vector.
std::vector<Value> Merge(const std::vector<Value>& a,
                         const std::vector<Value>& b) {
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace

AdomSeed AdomContext::SeedFor(const PartiallyClosedSetting& setting) {
  AdomSeed seed;

  // The setting's share of S: constants of Dm and V.
  seed.base = setting.dm.ActiveDomain();
  AddAll(&seed.base, CcConstants(setting.ccs));

  // df: all constants of finite attribute domains (database + master).
  for (const DatabaseSchema* schema : {&setting.schema,
                                       &setting.master_schema}) {
    for (const RelationSchema& rel : schema->relations()) {
      for (const Attribute& attr : rel.attributes()) {
        if (attr.domain.is_finite()) AddAll(&seed.base, attr.domain.values());
      }
    }
  }
  SortUnique(&seed.base);

  // The setting's share of New: one fresh constant per CC variable plus one
  // per column of the widest relation (for extension tuples).
  seed.fresh = static_cast<size_t>(CcMaxVarId(setting.ccs) + 1);
  size_t max_arity = 0;
  for (const RelationSchema& rel : setting.schema.relations()) {
    max_arity = std::max(max_arity, rel.arity());
  }
  seed.fresh += max_arity;
  return seed;
}

AdomContext AdomContext::BuildFromSeed(std::shared_ptr<const AdomSeed> seed,
                                       const CInstance& cinstance,
                                       const Query* query) {
  // S: constants of T (plus the query's, per the Thm 4.1 Adom) that the
  // shared setting constants lack. Both lists come sorted and unique.
  const std::vector<Value> t_constants = cinstance.Constants();
  const std::vector<Value> q_constants =
      query != nullptr ? query->Constants() : std::vector<Value>();
  std::vector<Value> overlay;
  std::set_union(t_constants.begin(), t_constants.end(), q_constants.begin(),
                 q_constants.end(), std::back_inserter(overlay));
  auto in_seed = [&seed](const Value& v) { return Contains(seed->base, v); };
  overlay.erase(std::remove_if(overlay.begin(), overlay.end(), in_seed),
                overlay.end());

  // New: one fresh constant per variable of T and the query, on top of the
  // setting budget; a name in S ∪ df is skipped.
  size_t num_fresh = cinstance.Vars().size() + seed->fresh;
  if (query != nullptr) {
    num_fresh += static_cast<size_t>(query->MaxVarId() + 1);
  }
  std::vector<Value> fresh;
  fresh.reserve(num_fresh);
  for (size_t counter = 0; fresh.size() < num_fresh; ++counter) {
    Value candidate = Value::Sym("@new" + std::to_string(counter));
    if (!Contains(seed->base, candidate) && !Contains(overlay, candidate)) {
      fresh.push_back(candidate);
    }
  }
  return AdomContext(std::move(seed), std::move(overlay), std::move(fresh));
}

const std::vector<Value>& AdomContext::base() const {
  std::call_once(base_once_, [this] { base_ = Merge(seed_->base, overlay_); });
  return base_;
}

const std::vector<Value>& AdomContext::values() const {
  std::call_once(values_once_, [this] {
    // The request's runs are small: merge them first, then the seed once.
    std::vector<Value> fresh = fresh_;
    std::sort(fresh.begin(), fresh.end());
    values_ = Merge(seed_->base, Merge(overlay_, fresh));
  });
  return values_;
}

Relation EvalOverAdom(const Query& q, const Instance& instance,
                      const AdomContext& adom) {
  const bool quantifies = q.language() == QueryLanguage::kEFOPlus ||
                          q.language() == QueryLanguage::kFO;
  Result<Relation> answers =
      quantifies ? q.Eval(instance, adom.values()) : q.Eval(instance);
  if (!answers.ok()) {
    std::fprintf(stderr, "relcomp: query evaluation failed: %s\n",
                 answers.status().ToString().c_str());
    std::fflush(stderr);
    std::abort();
  }
  return std::move(answers).value();
}

}  // namespace relcomp
