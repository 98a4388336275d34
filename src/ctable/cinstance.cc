#include "ctable/cinstance.h"

#include <algorithm>
#include <utility>

namespace relcomp {

CInstance::CInstance(DatabaseSchema schema) : schema_(std::move(schema)) {
  tables_.reserve(schema_.size());
  for (const RelationSchema& rel : schema_.relations()) {
    tables_.emplace_back(rel);
  }
}

CInstance CInstance::FromInstance(const Instance& instance) {
  CInstance out(instance.schema());
  for (size_t i = 0; i < instance.relations().size(); ++i) {
    out.tables_[i] = CTable::FromRelation(instance.relations()[i]);
  }
  return out;
}

const CTable& CInstance::at(const std::string& rel) const {
  for (const CTable& t : tables_) {
    if (t.schema().name() == rel) return t;
  }
  DieUnknownRelation(rel);
}

CTable& CInstance::at(const std::string& rel) {
  return const_cast<CTable&>(std::as_const(*this).at(rel));
}

size_t CInstance::TotalRows() const {
  size_t n = 0;
  for (const CTable& t : tables_) n += t.size();
  return n;
}

Result<Instance> CInstance::Apply(const Valuation& mu) const {
  Instance out(schema_);
  for (size_t i = 0; i < tables_.size(); ++i) {
    Result<Relation> rel = tables_[i].Apply(mu);
    if (!rel.ok()) return rel.status();
    out.relations()[i] = std::move(rel).value();
  }
  return out;
}

bool CInstance::IsGround() const {
  for (const CTable& t : tables_) {
    if (!t.IsGround()) return false;
  }
  return true;
}

std::vector<VarId> CInstance::Vars() const {
  std::vector<VarId> vars;
  for (const CTable& t : tables_) t.CollectVars(&vars);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::vector<Value> CInstance::Constants() const {
  std::vector<Value> consts;
  for (const CTable& t : tables_) t.CollectConstants(&consts);
  std::sort(consts.begin(), consts.end());
  consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  return consts;
}

size_t CInstance::VarUniverseSize() const {
  std::vector<VarId> vars = Vars();
  if (vars.empty()) return 0;
  return static_cast<size_t>(vars.back().id) + 1;
}

CInstance CInstance::RemoveRows(
    const std::vector<std::pair<int, int>>& rows) const {
  CInstance out(schema_);
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    for (size_t ri = 0; ri < tables_[ti].rows().size(); ++ri) {
      bool removed = false;
      for (const auto& pos : rows) {
        if (pos.first == static_cast<int>(ti) &&
            pos.second == static_cast<int>(ri)) {
          removed = true;
          break;
        }
      }
      if (!removed) out.tables_[ti].AddRow(tables_[ti].rows()[ri]);
    }
  }
  return out;
}

std::vector<std::pair<int, int>> CInstance::AllRowPositions() const {
  std::vector<std::pair<int, int>> positions;
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    for (size_t ri = 0; ri < tables_[ti].rows().size(); ++ri) {
      positions.emplace_back(static_cast<int>(ti), static_cast<int>(ri));
    }
  }
  return positions;
}

std::string CInstance::ToString() const {
  std::string out;
  for (const CTable& t : tables_) {
    if (!out.empty()) out += "\n";
    out += t.ToString();
  }
  return out;
}

}  // namespace relcomp
