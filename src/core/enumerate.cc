#include "core/enumerate.h"

#include <algorithm>
#include <cstdint>
#include <map>

namespace relcomp {
namespace {

// Intersects `acc` with `other` (both sorted unique).
std::vector<Value> IntersectSorted(const std::vector<Value>& acc,
                                   const std::vector<Value>& other) {
  std::vector<Value> out;
  std::set_intersection(acc.begin(), acc.end(), other.begin(), other.end(),
                        std::back_inserter(out));
  return out;
}

// Accumulates a variable-to-finite-domain constraint map.
class DomainCollector {
 public:
  void Constrain(VarId var, const Domain& domain) {
    Touch(var);
    if (!domain.is_finite()) return;
    auto it = finite_.find(var.id);
    if (it == finite_.end()) {
      finite_.emplace(var.id, domain.values());
    } else {
      it->second = IntersectSorted(it->second, domain.values());
    }
  }

  void Touch(VarId var) { all_vars_.insert(var.id); }

  // Every variable in id order: closed on the intersection of the finite
  // domains of its columns, or open when no finite domain constrains it.
  std::vector<OpenVarCandidate> Candidates() {
    std::vector<OpenVarCandidate> out;
    // LINT:waive(checkpoint-coverage, one pass over the collected variables)
    for (int32_t id : all_vars_) {
      OpenVarCandidate entry;
      entry.var = VarId{id};
      auto it = finite_.find(id);
      entry.open = it == finite_.end();
      if (!entry.open) entry.values = std::move(it->second);
      out.push_back(std::move(entry));
    }
    return out;
  }

 private:
  std::set<int32_t> all_vars_;
  std::map<int32_t, std::vector<Value>> finite_;
};

// Candidates for every variable of a c-instance. Variables occurring only
// in conditions are open.
std::vector<OpenVarCandidate> CInstanceVarCandidates(
    const CInstance& cinstance) {
  DomainCollector collector;
  // LINT:waive(checkpoint-coverage, scans the input c-instance once)
  for (const CTable& table : cinstance.tables()) {
    for (const CRow& row : table.rows()) {
      for (size_t i = 0; i < row.cells.size(); ++i) {
        if (std::holds_alternative<VarId>(row.cells[i])) {
          collector.Constrain(std::get<VarId>(row.cells[i]),
                              table.schema().attribute(i).domain);
        }
      }
      std::vector<VarId> cond_vars;
      row.condition.CollectVars(&cond_vars);
      for (VarId v : cond_vars) collector.Touch(v);
    }
  }
  return collector.Candidates();
}

}  // namespace

std::vector<OpenVarCandidate> CqVarCandidatesOpen(
    const ConjunctiveQuery& q, const DatabaseSchema& schema) {
  DomainCollector collector;
  // LINT:waive(checkpoint-coverage, scans the query atoms once)
  for (const RelAtom& atom : q.atoms()) {
    const RelationSchema& rel = *schema.Find(atom.rel);
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (std::holds_alternative<VarId>(atom.args[i])) {
        collector.Constrain(std::get<VarId>(atom.args[i]),
                            rel.attribute(i).domain);
      }
    }
  }
  // LINT:waive(checkpoint-coverage, scans the query builtins once)
  for (const CondAtom& b : q.builtins()) {
    if (std::holds_alternative<VarId>(b.lhs)) {
      collector.Touch(std::get<VarId>(b.lhs));
    }
    if (std::holds_alternative<VarId>(b.rhs)) {
      collector.Touch(std::get<VarId>(b.rhs));
    }
  }
  // LINT:waive(checkpoint-coverage, scans the query head once)
  for (const CTerm& t : q.head()) {
    if (std::holds_alternative<VarId>(t)) {
      collector.Touch(std::get<VarId>(t));
    }
  }
  return collector.Candidates();
}

CanonicalValuationEnumerator::CanonicalValuationEnumerator(
    std::vector<OpenVarCandidate> vars, std::vector<Value> base,
    std::vector<Value> fresh)
    : owned_(std::move(vars)),
      base_(std::move(base)),
      fresh_(std::move(fresh)),
      index_(owned_.size(), 0),
      fresh_used_(owned_.size() + 1, 0) {
  levels_.reserve(owned_.size());
  // LINT:waive(checkpoint-coverage, constructor scan, bounded by #vars)
  for (const OpenVarCandidate& v : owned_) {
    levels_.push_back({v.var, v.open ? nullptr : &v.values});
    if (v.open && base_.empty() && fresh_.empty()) exhausted_ = true;
    if (!v.open && v.values.empty()) exhausted_ = true;
  }
}

CanonicalValuationEnumerator::CanonicalValuationEnumerator(
    std::vector<Level> levels)
    : levels_(std::move(levels)), index_(levels_.size(), 0) {
  // LINT:waive(checkpoint-coverage, constructor scan, bounded by #levels)
  for (const Level& level : levels_) {
    if (level.values == nullptr || level.values->empty()) exhausted_ = true;
  }
}

size_t CanonicalValuationEnumerator::Limit(size_t level) const {
  const std::vector<Value>* values = levels_[level].values;
  if (values != nullptr) return values->size();
  return base_.size() + std::min(fresh_used_[level] + 1, fresh_.size());
}

const Value& CanonicalValuationEnumerator::At(size_t level) const {
  const std::vector<Value>* values = levels_[level].values;
  const size_t index = index_[level];
  if (values != nullptr) return (*values)[index];
  return index < base_.size() ? base_[index] : fresh_[index - base_.size()];
}

bool CanonicalValuationEnumerator::Advance() {
  if (exhausted_) return false;
  size_t pos = 0;  // the first level whose value changes
  if (started_) {
    // Radix carry from the last level. A level's limit depends only on the
    // levels before it, and every limit is at least 1 (the constructors
    // rule out empty levels), so the levels after `pos` restart at 0.
    pos = levels_.size();
    // LINT:waive(checkpoint-coverage, radix carry bounded by the level count)
    while (true) {
      if (pos == 0) {
        exhausted_ = true;
        return false;
      }
      --pos;
      if (++index_[pos] < Limit(pos)) break;
      index_[pos] = 0;
    }
  }
  started_ = true;
  // Only open levels read the fresh values taken before them; a walk over
  // closed levels alone (the second constructor) keeps no count.
  if (fresh_used_.empty()) return true;
  // LINT:waive(checkpoint-coverage, one pass over the changed levels)
  for (size_t i = pos; i < levels_.size(); ++i) {
    size_t used = fresh_used_[i];
    if (levels_[i].values == nullptr && index_[i] >= base_.size()) {
      used = std::max(used, index_[i] - base_.size() + 1);
    }
    fresh_used_[i + 1] = used;
  }
  return true;
}

bool CanonicalValuationEnumerator::Next(Valuation* mu) {
  if (!Advance()) return false;
  // LINT:waive(checkpoint-coverage, binds each variable once)
  for (size_t i = 0; i < levels_.size(); ++i) mu->Bind(levels_[i].var, At(i));
  return true;
}

bool CanonicalValuationEnumerator::Next(Tuple* t) {
  if (!Advance()) return false;
  t->resize(levels_.size());
  // LINT:waive(checkpoint-coverage, writes each tuple position once)
  for (size_t i = 0; i < levels_.size(); ++i) {
    (*t)[static_cast<size_t>(levels_[i].var.id)] = At(i);
  }
  return true;
}

CanonicalValuationEnumerator MakeCanonicalCqEnumerator(
    const ConjunctiveQuery& q, const DatabaseSchema& schema,
    const AdomContext& adom, const Instance& around) {
  std::vector<OpenVarCandidate> vars = CqVarCandidatesOpen(q, schema);
  const bool any_open =
      std::any_of(vars.begin(), vars.end(),
                  [](const OpenVarCandidate& v) { return v.open; });
  if (!any_open) {
    // Closed lists only: neither the base nor the fresh pool is read.
    return CanonicalValuationEnumerator(std::move(vars), {}, {});
  }
  // Values of `around` are pinned (they occur in the instance), so they
  // join the base; the remaining fresh constants stay interchangeable.
  const std::vector<Value> instance_values = around.ActiveDomain();
  std::vector<Value> base;
  base.reserve(adom.base().size() + instance_values.size());
  std::set_union(adom.base().begin(), adom.base().end(),
                 instance_values.begin(), instance_values.end(),
                 std::back_inserter(base));
  std::vector<Value> fresh;
  // LINT:waive(checkpoint-coverage, filters the fresh constants once)
  for (const Value& f : adom.fresh()) {
    if (!std::binary_search(base.begin(), base.end(), f)) fresh.push_back(f);
  }
  return CanonicalValuationEnumerator(std::move(vars), std::move(base),
                                      std::move(fresh));
}

CanonicalValuationEnumerator CandidateTuples(const RelationSchema& rel,
                                             const AdomContext& adom) {
  std::vector<CanonicalValuationEnumerator::Level> levels;
  levels.reserve(rel.arity());
  // LINT:waive(checkpoint-coverage, one level per column)
  for (size_t col = rel.arity(); col > 0; --col) {
    levels.push_back({VarId{static_cast<int32_t>(col - 1)},
                      &adom.Candidates(rel.attribute(col - 1).domain)});
  }
  return CanonicalValuationEnumerator(std::move(levels));
}

ModEnumerator::ModEnumerator(const CInstance& cinstance,
                             const PreparedSetting& prepared,
                             const AdomContext& adom,
                             const SearchOptions& options, SearchStats* stats)
    : prepared_(prepared),
      stats_(stats),
      vars_(CInstanceVarCandidates(cinstance)),
      built_(cinstance.schema()),
      mu_(cinstance.VarUniverseSize()),
      checkpoint_(options, "Mod(T, Dm, V) enumeration", "mod-enum") {
  // LINT:waive(checkpoint-coverage, one candidate list per variable)
  for (const OpenVarCandidate& v : vars_) {
    const std::vector<Value>* values = v.open ? &adom.values() : &v.values;
    if (values->empty()) done_ = true;  // no valuation at all
    all_vars_.push_back({v.var, values});
  }
  auto level_of = [this](VarId var) {
    return *std::lower_bound(
        all_vars_.begin(), all_vars_.end(), var,
        [](const Level& level, VarId v) { return level.var < v; });
  };
  auto add_once = [](std::vector<Level>* levels, const Level& level) {
    // LINT:waive(checkpoint-coverage, bounded by the row's width)
    for (const Level& have : *levels) {
      if (have.var == level.var) return;
    }
    levels->push_back(level);
  };
  std::vector<VarId> cond_vars;
  rows_.reserve(cinstance.TotalRows());
  // LINT:waive(checkpoint-coverage, scans the input c-instance once)
  for (size_t r = 0; r < cinstance.tables().size(); ++r) {
    for (const CRow& row : cinstance.tables()[r].rows()) {
      Row& step = rows_.emplace_back();
      step.rel = r;
      step.row = &row;
      cond_vars.clear();
      row.condition.CollectVars(&cond_vars);
      for (VarId v : cond_vars) add_once(&step.cond_vars, level_of(v));
      for (const Cell& cell : row.cells) {
        if (!std::holds_alternative<VarId>(cell)) continue;
        const Level level = level_of(std::get<VarId>(cell));
        const bool in_cond = std::any_of(
            step.cond_vars.begin(), step.cond_vars.end(),
            [&level](const Level& c) { return c.var == level.var; });
        if (!in_cond) add_once(&step.cell_vars, level);
      }
    }
  }
  frames_ = std::vector<Frame>(rows_.size());
}

void ModEnumerator::Enter(size_t depth) {
  // The row's variables that no earlier row bound, fed last first so the
  // first one advances fastest.
  auto unbound = [this](const std::vector<Level>& vars,
                        std::vector<Level>* levels) {
    levels->clear();
    // LINT:waive(checkpoint-coverage, one level per variable of the row)
    for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
      if (!mu_.IsBound(it->var)) levels->push_back(*it);
    }
  };
  Frame& frame = frames_[depth];
  unbound(rows_[depth].cond_vars, &frame.cond_levels);
  unbound(rows_[depth].cell_vars, &frame.cell_levels);
  frame.cond.emplace(frame.cond_levels);
  frame.cells.reset();
  frame.inserted = false;
}

void ModEnumerator::Unbind(const std::vector<Level>& levels) {
  // LINT:waive(checkpoint-coverage, one variable per level)
  for (const Level& level : levels) mu_.Unbind(level.var);
}

Result<bool> ModEnumerator::Advance(size_t depth) {
  const Row& row = rows_[depth];
  Frame& frame = frames_[depth];
  Relation& rel = built_.relations()[row.rel];
  DeltaRow& added = delta_[0];
  if (frame.inserted) {
    rel.Erase(frame.tuple);
    frame.inserted = false;
  }
  while (true) {
    if (frame.cells.has_value()) {
      if (frame.cells->Next(&mu_)) {
        RELCOMP_RETURN_IF_ERROR(checkpoint_.Tick());
        if (stats_ != nullptr) ++stats_->valuations;
        added.rel = row.rel;
        added.tuple.clear();
        for (const Cell& cell : row.row->cells) {
          added.tuple.push_back(std::holds_alternative<Value>(cell)
                                    ? std::get<Value>(cell)
                                    : *mu_.Get(std::get<VarId>(cell)));
        }
        // A row equal to one an earlier row built adds nothing to check,
        // and is not erased on the way back.
        if (rel.Contains(added.tuple)) return true;
        if (stats_ != nullptr) ++stats_->cc_checks;
        if (!prepared_.SatisfiesCCsDelta(built_, delta_)) continue;
        frame.inserted = rel.Insert(added.tuple);
        frame.tuple.swap(added.tuple);
        return true;
      }
      frame.cells.reset();
      Unbind(frame.cell_levels);
    }
    if (!frame.cond->Next(&mu_)) {
      Unbind(frame.cond_levels);
      return false;
    }
    if (!*row.row->condition.Eval(mu_)) {
      // A dropped row: its cell variables stay unbound for later rows.
      RELCOMP_RETURN_IF_ERROR(checkpoint_.Tick());
      if (stats_ != nullptr) ++stats_->valuations;
      return true;
    }
    frame.cells.emplace(frame.cell_levels);
  }
}

bool ModEnumerator::Emit(Valuation* mu, Instance* world) {
  // Structural key: the sorted rows of every relation. A rendered key
  // would take the symbol interner's lock per value and merge Int(1) with
  // Sym("1").
  WorldKey key;
  key.reserve(built_.relations().size());
  // LINT:waive(checkpoint-coverage, one row vector per relation)
  for (const Relation& rel : built_.relations()) key.push_back(rel.rows());
  if (!seen_.insert(std::move(key)).second) return false;
  if (stats_ != nullptr) ++stats_->worlds;
  if (world != nullptr) *world = built_;
  if (mu != nullptr) {
    *mu = mu_;
    // Variables of dropped rows only: any candidate gives this world.
    // LINT:waive(checkpoint-coverage, one binding per variable)
    for (const Level& level : all_vars_) {
      if (!mu->IsBound(level.var)) mu->Bind(level.var, level.values->front());
    }
  }
  return true;
}

Result<bool> ModEnumerator::Next(Valuation* mu, Instance* world) {
  if (done_) return false;
  if (!started_) {
    started_ = true;
    // The walk's base case: ∅ is partially closed unless a CC with an
    // empty body fails, and then so does every world.
    if (stats_ != nullptr) ++stats_->cc_checks;
    if (!*prepared_.SatisfiesCCs(built_)) {
      done_ = true;
      return false;
    }
    if (rows_.empty()) {
      done_ = true;
      return Emit(mu, world);
    }
    Enter(0);
  }
  // Resume at the row that moves next: the last row once a world was
  // returned.
  while (true) {
    Result<bool> moved = Advance(depth_);
    if (!moved.ok()) return moved.status();
    if (!*moved) {
      if (depth_ == 0) {
        done_ = true;
        return false;
      }
      --depth_;
    } else if (depth_ + 1 < rows_.size()) {
      Enter(++depth_);
    } else if (Emit(mu, world)) {
      return true;
    }
  }
}

ExtensionSearch::ExtensionSearch(const PreparedSetting& prepared,
                                 const AdomContext& adom, size_t max_added,
                                 const SearchOptions& options,
                                 const char* what, const char* loop)
    : max_added_(max_added), checkpoint_(options, what, loop) {
  // LINT:waive(checkpoint-coverage, one entry per relation and column)
  for (const RelationSchema& rel : prepared.schema().relations()) {
    Candidates& candidates = candidates_.emplace_back();
    for (const Attribute& attr : rel.attributes()) {
      const std::vector<Value>& values = adom.Candidates(attr.domain);
      candidates.columns.push_back(&values);
      // The product saturates; the step budget ends any walk long before.
      if (values.empty() || candidates.count <= SIZE_MAX / values.size()) {
        candidates.count *= values.size();
      } else {
        candidates.count = SIZE_MAX;
      }
    }
  }
}

void ExtensionSearch::Candidates::Decode(size_t i, Tuple* t) const {
  t->resize(columns.size());
  // LINT:waive(checkpoint-coverage, one digit per column)
  for (size_t col = 0; col < columns.size(); ++col) {
    const std::vector<Value>& values = *columns[col];
    (*t)[col] = values[i % values.size()];
    i /= values.size();
  }
}

Status ExtensionSearch::Run(Instance base, const NodeTest& test) {
  return Explore(&base, 0, 0, 0, test).status();
}

Result<bool> ExtensionSearch::Explore(Instance* current, size_t added,
                                      size_t rel, size_t next,
                                      const NodeTest& test) {
  RELCOMP_RETURN_IF_ERROR(checkpoint_.Tick());
  Result<Step> step = test(*current, added);
  if (!step.ok()) return step.status();
  if (*step == Step::kStop) return true;
  if (*step == Step::kPrune || added >= max_added_) return false;
  // Extend at positions ≥ (rel, next) only, so each set is built once. No
  // tuple at or after that position was added on the way here, so one
  // that `current` holds is a base tuple: skipped.
  Tuple t;
  for (size_t r = rel; r < candidates_.size(); ++r) {
    Relation& present = current->relations()[r];
    for (size_t i = r == rel ? next : 0; i < candidates_[r].count; ++i) {
      candidates_[r].Decode(i, &t);
      if (present.Contains(t)) continue;
      present.Insert(t);
      Result<bool> stopped = Explore(current, added + 1, r, i + 1, test);
      present.Erase(t);
      if (!stopped.ok() || *stopped) return stopped;
    }
  }
  return false;
}

}  // namespace relcomp
