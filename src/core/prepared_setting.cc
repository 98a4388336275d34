#include "core/prepared_setting.h"

#include <algorithm>

#include "core/fingerprint.h"
#include "query/containment.h"

namespace relcomp {
namespace {

// A term fixed at compile time: a variable slot, or a constant (slot < 0).
struct SlotTerm {
  int32_t slot = -1;
  Value constant;

  const Value& Get(const std::vector<Value>& slots) const {
    return slot < 0 ? constant : slots[static_cast<size_t>(slot)];
  }
};

struct CompiledBuiltin {
  SlotTerm lhs;
  SlotTerm rhs;
  bool neq = false;
};

// What one atom argument does with the tuple value at its position: match a
// constant, bind the variable's slot (its first occurrence in atom order),
// or compare against the slot an earlier position bound.
struct CompiledArg {
  enum class Op : uint8_t { kConstant, kBind, kCompare };
  Op op = Op::kConstant;
  uint32_t slot = 0;
  Value constant;
};

struct CompiledAtom {
  size_t rel = 0;  // index into the setting's schema
  std::vector<CompiledArg> args;
  // The builtins whose sides are first both bound by this atom.
  std::vector<CompiledBuiltin> builtins;
};

// One CC q(R) ⊆ π_cols(Rm), compiled against the setting's schema.
struct CompiledCc {
  bool never_fires = false;  // a constant-only builtin is false
  std::vector<CompiledAtom> atoms;
  std::vector<SlotTerm> head;
  size_t num_slots = 0;
  Relation master;  // π_cols(Dm[Rm]), sorted: the head probe
};

// `setting` has passed Validate(): every atom names a relation of the
// schema at its arity, the head is safe, and Dm holds the master with every
// projected column.
CompiledCc Compile(const ContainmentConstraint& cc,
                   const PartiallyClosedSetting& setting) {
  CompiledCc out;
  const ConjunctiveQuery& q = cc.q();
  out.master = setting.dm.Find(cc.master_rel())->Project(cc.master_cols());

  // Slots in order of first occurrence; `bound_at` is the atom that binds.
  std::vector<std::pair<VarId, size_t>> bound_at;
  auto slot_of = [&bound_at](VarId var) -> int32_t {
    for (size_t s = 0; s < bound_at.size(); ++s) {
      if (bound_at[s].first == var) return static_cast<int32_t>(s);
    }
    return -1;
  };
  for (size_t a = 0; a < q.atoms().size(); ++a) {
    const RelAtom& atom = q.atoms()[a];
    CompiledAtom compiled;
    compiled.rel = static_cast<size_t>(setting.schema.IndexOf(atom.rel));
    for (const CTerm& term : atom.args) {
      CompiledArg arg;
      if (std::holds_alternative<Value>(term)) {
        arg.constant = std::get<Value>(term);
      } else {
        const VarId var = std::get<VarId>(term);
        const int32_t slot = slot_of(var);
        if (slot >= 0) {
          arg.op = CompiledArg::Op::kCompare;
          arg.slot = static_cast<uint32_t>(slot);
        } else {
          arg.op = CompiledArg::Op::kBind;
          arg.slot = static_cast<uint32_t>(bound_at.size());
          bound_at.emplace_back(var, a);
        }
      }
      compiled.args.push_back(std::move(arg));
    }
    out.atoms.push_back(std::move(compiled));
  }
  out.num_slots = bound_at.size();

  // Validate() guarantees every variable below is bound by some atom.
  auto term_of = [&slot_of](const CTerm& term) {
    SlotTerm out_term;
    if (std::holds_alternative<Value>(term)) {
      out_term.constant = std::get<Value>(term);
    } else {
      out_term.slot = slot_of(std::get<VarId>(term));
    }
    return out_term;
  };
  for (const CondAtom& b : q.builtins()) {
    CompiledBuiltin compiled{term_of(b.lhs), term_of(b.rhs), b.neq};
    if (compiled.lhs.slot < 0 && compiled.rhs.slot < 0) {
      // Constant-only: decided now, for every binding at once.
      if ((compiled.lhs.constant == compiled.rhs.constant) == b.neq) {
        out.never_fires = true;
      }
      continue;
    }
    size_t at = 0;
    for (const SlotTerm& side : {compiled.lhs, compiled.rhs}) {
      if (side.slot >= 0) {
        at = std::max(at, bound_at[static_cast<size_t>(side.slot)].second);
      }
    }
    out.atoms[at].builtins.push_back(std::move(compiled));
  }
  for (const CTerm& term : q.head()) out.head.push_back(term_of(term));
  return out;
}

// Per-call scratch: the variable slots and the head buffer. Lives on the
// caller's stack, so one plan serves any number of concurrent checks.
struct Scratch {
  std::vector<Value> slots;
  Tuple head;
};

bool Matches(const CompiledAtom& atom, const Tuple& tuple,
             std::vector<Value>& slots) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const CompiledArg& arg = atom.args[i];
    switch (arg.op) {
      case CompiledArg::Op::kConstant:
        if (tuple[i] != arg.constant) return false;
        break;
      case CompiledArg::Op::kBind:
        slots[arg.slot] = tuple[i];
        break;
      case CompiledArg::Op::kCompare:
        if (tuple[i] != slots[arg.slot]) return false;
        break;
    }
  }
  for (const CompiledBuiltin& b : atom.builtins) {
    if ((b.lhs.Get(slots) == b.rhs.Get(slots)) == b.neq) return false;
  }
  return true;
}

// Backtracking join over a fixed atom order that stops at the first binding
// whose head falls outside the master projection. Without a delta every
// atom reads `base`. With one, this is semi-naive pass `delta_atom`: atoms
// before it read `base`, it reads Δ, and atoms after it read base ∪ Δ — so
// the passes together visit exactly the bindings that use a row of Δ.
class ViolationSearch {
 public:
  ViolationSearch(const CompiledCc& cc, const Instance& base,
                  const std::vector<DeltaRow>* delta, size_t delta_atom,
                  Scratch* scratch)
      : cc_(cc),
        base_(base),
        delta_(delta),
        delta_atom_(delta_atom),
        s_(*scratch) {}

  bool Found() { return Visit(0); }

 private:
  bool Visit(size_t a) {
    if (a == cc_.atoms.size()) {
      s_.head.resize(cc_.head.size());
      for (size_t i = 0; i < cc_.head.size(); ++i) {
        s_.head[i] = cc_.head[i].Get(s_.slots);
      }
      return !cc_.master.Contains(s_.head);
    }
    const CompiledAtom& atom = cc_.atoms[a];
    if (delta_ == nullptr || a != delta_atom_) {
      for (const Tuple& tuple : base_.relations()[atom.rel].rows()) {
        if (Matches(atom, tuple, s_.slots) && Visit(a + 1)) return true;
      }
    }
    if (delta_ != nullptr && a >= delta_atom_) {
      for (const DeltaRow& row : *delta_) {
        if (row.rel == atom.rel && Matches(atom, row.tuple, s_.slots) &&
            Visit(a + 1)) {
          return true;
        }
      }
    }
    return false;
  }

  const CompiledCc& cc_;
  const Instance& base_;
  const std::vector<DeltaRow>* delta_;
  size_t delta_atom_;
  Scratch& s_;
};

}  // namespace

struct PreparedSetting::CcPlan {
  explicit CcPlan(const PartiallyClosedSetting& setting) {
    for (const ContainmentConstraint& cc : setting.ccs) {
      ccs.push_back(Compile(cc, setting));
      max_slots = std::max(max_slots, ccs.back().num_slots);
      max_head = std::max(max_head, ccs.back().head.size());
    }
  }

  Scratch MakeScratch() const {
    Scratch scratch;
    scratch.slots.resize(max_slots);
    scratch.head.reserve(max_head);
    return scratch;
  }

  std::vector<CompiledCc> ccs;  // parallel to the setting's CCs
  size_t max_slots = 0;
  size_t max_head = 0;
};

PreparedSetting::Artifacts::~Artifacts() = default;

Result<PreparedSetting> PreparedSetting::Prepare(
    PartiallyClosedSetting setting) {
  const uint64_t fingerprint = FingerprintSetting(setting);
  return Prepare(std::move(setting), fingerprint);
}

Result<PreparedSetting> PreparedSetting::Prepare(PartiallyClosedSetting setting,
                                                 uint64_t fingerprint) {
  RELCOMP_RETURN_IF_ERROR(setting.Validate());
  auto a = std::make_shared<Artifacts>();
  a->adom_seed =
      std::make_shared<const AdomSeed>(AdomContext::SeedFor(setting));
  a->all_inds = AllInds(setting.ccs);
  a->fingerprint = fingerprint;
  a->setting =
      std::make_shared<const PartiallyClosedSetting>(std::move(setting));
  return PreparedSetting(std::move(a));
}

const PreparedSetting::CcPlan& PreparedSetting::plan() const {
  std::call_once(a_->plan_once, [this] {
    a_->plan = std::make_unique<const CcPlan>(*a_->setting);
  });
  return *a_->plan;
}

Result<bool> PreparedSetting::SatisfiesCCs(const Instance& instance) const {
  const CcPlan& plan = this->plan();
  Scratch scratch = plan.MakeScratch();
  for (const CompiledCc& cc : plan.ccs) {
    if (cc.never_fires) continue;
    if (ViolationSearch(cc, instance, nullptr, 0, &scratch).Found()) {
      return false;
    }
  }
  return true;
}

bool PreparedSetting::SatisfiesCCsDelta(
    const Instance& closed, const std::vector<DeltaRow>& delta) const {
  const CcPlan& plan = this->plan();
  Scratch scratch = plan.MakeScratch();
  for (const CompiledCc& cc : plan.ccs) {
    if (cc.never_fires) continue;
    for (size_t d = 0; d < cc.atoms.size(); ++d) {
      const size_t rel = cc.atoms[d].rel;
      const bool touched =
          std::any_of(delta.begin(), delta.end(),
                      [rel](const DeltaRow& row) { return row.rel == rel; });
      if (touched &&
          ViolationSearch(cc, closed, &delta, d, &scratch).Found()) {
        return false;
      }
    }
  }
  return true;
}

Instance PreparedSetting::WithDelta(const Instance& base,
                                    const std::vector<DeltaRow>& delta) {
  Instance out = base;
  for (const DeltaRow& row : delta) {
    out.relations()[row.rel].Insert(row.tuple);
  }
  return out;
}

AdomContext PreparedSetting::BuildAdomForGround(const Instance& instance,
                                                const Query* query) const {
  return BuildAdom(CInstance::FromInstance(instance), query);
}

}  // namespace relcomp
