#include "data/schema.h"

namespace relcomp {

RelationSchema RelationSchema::Anonymous(std::string name, size_t arity) {
  std::vector<Attribute> attrs;
  attrs.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back(Attribute{"a" + std::to_string(i), Domain::Infinite()});
  }
  return RelationSchema(std::move(name), std::move(attrs));
}

int RelationSchema::AttributeIndex(const std::string& attr) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == attr) return static_cast<int>(i);
  }
  return -1;
}

void DatabaseSchema::AddRelation(RelationSchema schema) {
  for (auto& existing : relations_) {
    if (existing.name() == schema.name()) {
      existing = std::move(schema);
      return;
    }
  }
  relations_.push_back(std::move(schema));
}

const RelationSchema* DatabaseSchema::Find(const std::string& name) const {
  const int index = IndexOf(name);
  return index < 0 ? nullptr : &relations_[static_cast<size_t>(index)];
}

int DatabaseSchema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name() == name) return static_cast<int>(i);
  }
  return -1;
}

Result<RelationSchema> DatabaseSchema::Get(const std::string& name) const {
  const RelationSchema* found = Find(name);
  if (found == nullptr) {
    return Status::NotFound("no relation schema named '" + name + "'");
  }
  return *found;
}

}  // namespace relcomp
