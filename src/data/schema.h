// Relation and database schemas. A database schema R = (R1, ..., Rn) is a
// list of relation schemas, each over named, domain-typed attributes.
#ifndef RELCOMP_DATA_SCHEMA_H_
#define RELCOMP_DATA_SCHEMA_H_

#include <string>
#include <vector>

#include "data/domain.h"
#include "util/status.h"

namespace relcomp {

/// A named, typed attribute of a relation schema.
struct Attribute {
  std::string name;
  Domain domain = Domain::Infinite();
};

/// Schema of a single relation: name plus attribute list.
class RelationSchema {
 public:
  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<Attribute> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {}

  /// Schema whose attributes are all infinite-domain, named a0..a{n-1}.
  static RelationSchema Anonymous(std::string name, size_t arity);

  const std::string& name() const { return name_; }
  size_t arity() const { return attributes_.size(); }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }

  /// Index of the attribute named `attr`, or -1 if absent.
  int AttributeIndex(const std::string& attr) const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
};

/// Schema of a database: an ordered collection of relation schemas.
class DatabaseSchema {
 public:
  DatabaseSchema() = default;
  explicit DatabaseSchema(std::vector<RelationSchema> relations)
      : relations_(std::move(relations)) {}

  /// Appends a relation schema; replaces any previous one with the same name.
  void AddRelation(RelationSchema schema);

  const std::vector<RelationSchema>& relations() const { return relations_; }
  size_t size() const { return relations_.size(); }

  /// Lookup by name; nullptr if absent.
  const RelationSchema* Find(const std::string& name) const;
  /// Position of the relation named `name` in relations(), or -1 if absent.
  int IndexOf(const std::string& name) const;
  /// Lookup by name; error status if absent.
  Result<RelationSchema> Get(const std::string& name) const;
  bool Contains(const std::string& name) const { return Find(name) != nullptr; }

 private:
  std::vector<RelationSchema> relations_;
};

}  // namespace relcomp

#endif  // RELCOMP_DATA_SCHEMA_H_
