#include "data/instance.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace relcomp {

void DieUnknownRelation(const std::string& rel) {
  std::fprintf(stderr, "relcomp: unknown relation '%s'\n", rel.c_str());
  std::fflush(stderr);
  std::abort();
}

Instance::Instance(DatabaseSchema schema) : schema_(std::move(schema)) {
  relations_.reserve(schema_.size());
  for (const RelationSchema& rel : schema_.relations()) {
    relations_.emplace_back(rel);
  }
}

const Relation& Instance::at(const std::string& rel) const {
  const Relation* found = Find(rel);
  if (found == nullptr) DieUnknownRelation(rel);
  return *found;
}

Relation& Instance::at(const std::string& rel) {
  return const_cast<Relation&>(std::as_const(*this).at(rel));
}

const Relation* Instance::Find(const std::string& rel) const {
  for (const Relation& r : relations_) {
    if (r.schema().name() == rel) return &r;
  }
  return nullptr;
}

bool Instance::AddTuple(const std::string& rel, Tuple t) {
  return at(rel).Insert(std::move(t));
}

bool Instance::RemoveTuple(const std::string& rel, const Tuple& t) {
  return at(rel).Erase(t);
}

size_t Instance::TotalTuples() const {
  size_t n = 0;
  for (const Relation& r : relations_) n += r.size();
  return n;
}

bool Instance::IsSubsetOf(const Instance& other) const {
  if (relations_.size() != other.relations_.size()) return false;
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (!relations_[i].IsSubsetOf(other.relations_[i])) return false;
  }
  return true;
}

bool Instance::IsProperSubsetOf(const Instance& other) const {
  return TotalTuples() < other.TotalTuples() && IsSubsetOf(other);
}

Instance Instance::Union(const Instance& other) const {
  Instance out = *this;
  assert(relations_.size() == other.relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    out.relations_[i].InsertAll(other.relations_[i]);
  }
  return out;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::vector<Value> values;
  for (const Relation& r : relations_) {
    for (const Tuple& t : r.rows()) {
      values.insert(values.end(), t.begin(), t.end());
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::string Instance::ToString() const {
  std::string out;
  for (const Relation& r : relations_) {
    if (!out.empty()) out += "\n";
    out += r.ToString();
  }
  return out;
}

}  // namespace relcomp
