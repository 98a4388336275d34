// Instance: a ground database instance I = (I1, ..., In) of a DatabaseSchema.
// Master data Dm is itself an Instance (of the master schema Rm). The paper's
// extension order I ⊊ I' (relation-wise subset, at least one proper) is
// implemented here.
#ifndef RELCOMP_DATA_INSTANCE_H_
#define RELCOMP_DATA_INSTANCE_H_

#include <string>
#include <vector>

#include "data/relation.h"
#include "data/schema.h"
#include "util/status.h"

namespace relcomp {

/// Prints "relcomp: unknown relation '<rel>'" to stderr and aborts: how the
/// by-name accessors of Instance and CInstance fail, in every build type.
[[noreturn]] void DieUnknownRelation(const std::string& rel);

/// A ground database instance: one Relation per relation schema.
class Instance {
 public:
  Instance() = default;
  /// Creates empty relations for every schema in `schema`.
  explicit Instance(DatabaseSchema schema);

  const DatabaseSchema& schema() const { return schema_; }
  const std::vector<Relation>& relations() const { return relations_; }
  std::vector<Relation>& relations() { return relations_; }

  /// Relation accessor by name. An unknown name aborts the process in every
  /// build type (DieUnknownRelation).
  const Relation& at(const std::string& rel) const;
  Relation& at(const std::string& rel);
  /// Relation accessor by name; nullptr if absent.
  const Relation* Find(const std::string& rel) const;

  /// Inserts a tuple into relation `rel`; true if new.
  bool AddTuple(const std::string& rel, Tuple t);
  /// Removes a tuple from relation `rel`; true if it was present.
  bool RemoveTuple(const std::string& rel, const Tuple& t);

  /// Total number of tuples across all relations (the paper's |I|).
  size_t TotalTuples() const;
  bool Empty() const { return TotalTuples() == 0; }

  /// Relation-wise subset test: I ⊆ I'.
  bool IsSubsetOf(const Instance& other) const;
  /// The paper's I ⊊ I': subset and strictly fewer tuples somewhere.
  bool IsProperSubsetOf(const Instance& other) const;

  /// Relation-wise union (schemas must agree).
  Instance Union(const Instance& other) const;

  /// All constants appearing in any tuple (sorted, unique).
  std::vector<Value> ActiveDomain() const;

  /// Equality as families of tuple sets.
  friend bool operator==(const Instance& a, const Instance& b) {
    return a.relations_ == b.relations_;
  }
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }

  std::string ToString() const;

 private:
  DatabaseSchema schema_;
  std::vector<Relation> relations_;  // parallel to schema_.relations()
};

}  // namespace relcomp

#endif  // RELCOMP_DATA_INSTANCE_H_
