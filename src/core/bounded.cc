#include "core/bounded.h"

namespace relcomp {
namespace {

// DFS extension search around one ground instance. CC-violating nodes prune
// their subtree (CC bodies are monotone CQs, so violations persist).
class ExtensionSearcher {
 public:
  ExtensionSearcher(const Query& q, const PreparedSetting& prepared,
                    const AdomContext& adom, size_t max_added,
                    const SearchOptions& options, SearchStats* stats)
      : q_(q),
        prepared_(prepared),
        adom_(adom),
        max_added_(max_added),
        options_(options),
        stats_(stats),
        checkpoint_(options_, "bounded incompleteness search", "bounded-dfs") {
    for (const RelationSchema& rel : prepared.schema().relations()) {
      std::vector<Tuple> tuples;
      TupleEnumerator it(rel, adom);
      Tuple t;
      while (it.Next(&t)) tuples.push_back(t);
      candidates_.push_back(std::move(tuples));
    }
  }

  Result<BoundedSearchResult> Run(const Instance& base) {
    BoundedSearchResult result;
    if (stats_ != nullptr) ++stats_->query_evals;
    Result<Relation> base_answers = EvalOverAdom(q_, base, adom_);
    if (!base_answers.ok()) return base_answers.status();
    Instance current = base;
    Status st = Explore(base, *base_answers, &current, 0, 0, 0, &result);
    if (!st.ok()) return st;
    return result;
  }

 private:
  Status Explore(const Instance& base, const Relation& base_answers,
                 Instance* current, size_t added, size_t rel_index,
                 size_t tuple_index, BoundedSearchResult* result) {
    if (result->witness_found) return Status::OK();
    RELCOMP_RETURN_IF_ERROR(checkpoint_.Tick());
    if (added > 0) {
      ++result->explored;
      if (stats_ != nullptr) {
        ++stats_->extensions;
        ++stats_->cc_checks;
      }
      Result<bool> closed = prepared_.SatisfiesCCs(*current);
      if (!closed.ok()) return closed.status();
      if (!*closed) return Status::OK();  // prune: supersets stay violated
      if (stats_ != nullptr) ++stats_->query_evals;
      Result<Relation> answers = EvalOverAdom(q_, *current, adom_);
      if (!answers.ok()) return answers.status();
      if (*answers != base_answers) {
        result->witness_found = true;
        result->witness.world = base;
        result->witness.extension = *current;
        Relation gained = answers->Difference(base_answers);
        Relation lost = base_answers.Difference(*answers);
        if (!gained.empty()) {
          result->witness.answer = gained.rows().front();
          result->witness.note = "extension gains answer " +
                                 TupleToString(result->witness.answer);
        } else {
          result->witness.answer = lost.rows().front();
          result->witness.note = "extension loses answer " +
                                 TupleToString(result->witness.answer) +
                                 " (non-monotone query)";
        }
        return Status::OK();
      }
    }
    if (added >= max_added_) return Status::OK();
    for (size_t r = rel_index; r < candidates_.size(); ++r) {
      size_t start = (r == rel_index) ? tuple_index : 0;
      const std::string& rel_name = prepared_.schema().relations()[r].name();
      const Relation& existing = current->at(rel_name);
      for (size_t ti = start; ti < candidates_[r].size(); ++ti) {
        if (existing.Contains(candidates_[r][ti])) continue;
        current->AddTuple(rel_name, candidates_[r][ti]);
        Status st = Explore(base, base_answers, current, added + 1, r, ti + 1,
                            result);
        current->RemoveTuple(rel_name, candidates_[r][ti]);
        if (!st.ok()) return st;
        if (result->witness_found) return Status::OK();
      }
    }
    return Status::OK();
  }

  const Query& q_;
  const PreparedSetting& prepared_;
  const AdomContext& adom_;
  size_t max_added_;
  SearchOptions options_;
  SearchStats* stats_;
  std::vector<std::vector<Tuple>> candidates_;
  SearchCheckpoint checkpoint_;
};

}  // namespace

Result<BoundedSearchResult> SearchIncompletenessGround(
    const Query& q, const Instance& instance,
    const PreparedSetting& prepared, size_t max_added_tuples,
    const SearchOptions& options, SearchStats* stats) {
  AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  ExtensionSearcher searcher(q, prepared, adom, max_added_tuples, options,
                             stats);
  return searcher.Run(instance);
}

Result<BoundedSearchResult> SearchIncompletenessStrong(
    const Query& q, const CInstance& cinstance,
    const PreparedSetting& prepared, size_t max_added_tuples,
    const SearchOptions& options, SearchStats* stats) {
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  ExtensionSearcher searcher(q, prepared, adom, max_added_tuples, options,
                             stats);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  BoundedSearchResult aggregate;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    Result<BoundedSearchResult> result = searcher.Run(world);
    if (!result.ok()) return result.status();
    aggregate.explored += result->explored;
    if (result->witness_found) {
      aggregate.witness_found = true;
      aggregate.witness = result->witness;
      return aggregate;
    }
  }
  return aggregate;
}

}  // namespace relcomp
