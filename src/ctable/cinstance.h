// C-instances: one c-table per relation schema. A c-instance T represents
// the set of ground instances { µ(T) } over all valuations µ; constrained by
// master data and CCs this becomes Mod(T, Dm, V) (Section 2.2).
#ifndef RELCOMP_CTABLE_CINSTANCE_H_
#define RELCOMP_CTABLE_CINSTANCE_H_

#include <string>
#include <vector>

#include "ctable/ctable.h"
#include "data/instance.h"
#include "data/schema.h"
#include "util/status.h"

namespace relcomp {

/// A c-instance T = (T1, ..., Tn) of a database schema.
class CInstance {
 public:
  CInstance() = default;
  /// Creates empty c-tables for every relation of `schema`.
  explicit CInstance(DatabaseSchema schema);

  /// Lifts a ground instance to a variable-free c-instance.
  static CInstance FromInstance(const Instance& instance);

  const DatabaseSchema& schema() const { return schema_; }
  const std::vector<CTable>& tables() const { return tables_; }
  std::vector<CTable>& tables() { return tables_; }

  /// C-table accessor by relation name. An unknown name aborts the process
  /// in every build type (DieUnknownRelation).
  const CTable& at(const std::string& rel) const;
  CTable& at(const std::string& rel);

  /// Total number of rows across all c-tables (the paper's |T|).
  size_t TotalRows() const;

  /// µ(T): applies the valuation to every member table.
  Result<Instance> Apply(const Valuation& mu) const;

  /// True if every member table is ground.
  bool IsGround() const;

  /// Distinct variables used anywhere in the c-instance (sorted by id).
  std::vector<VarId> Vars() const;
  /// Constants used anywhere (sorted, unique).
  std::vector<Value> Constants() const;

  /// Number of variable slots to allocate for valuations (max id + 1).
  size_t VarUniverseSize() const;

  /// Enumerates all sub-c-instances obtained by deleting the rows at the
  /// given (table_index, row_index) positions. Used by MINP.
  CInstance RemoveRows(const std::vector<std::pair<int, int>>& rows) const;

  /// All (table_index, row_index) positions, in order.
  std::vector<std::pair<int, int>> AllRowPositions() const;

  std::string ToString() const;

 private:
  DatabaseSchema schema_;
  std::vector<CTable> tables_;  // parallel to schema_.relations()
};

}  // namespace relcomp

#endif  // RELCOMP_CTABLE_CINSTANCE_H_
