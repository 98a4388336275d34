// The hardness reductions run forwards: decide ∀X∃Y 3SAT by building the
// Prop 3.3 gadget and asking the *consistency* decider, and ∃X∀Y∃Z 3SAT via
// the viable-model RCDP gadget (Thm 6.1). Cross-checked against the brute
// QBF evaluator — a demonstration that the executable reductions are exact.
#include <cstdio>

#include "core/consistency.h"
#include "core/rcdp.h"
#include "logic/qbf.h"
#include "reductions/prop33.h"
#include "reductions/thm61_viable.h"

using namespace relcomp;

int main() {
  std::printf("=== deciding QBF through relative-completeness gadgets ===\n\n");

  int agree = 0, total = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Qbf pi2 = MakeForallExists(2, 2, RandomCnf3(4, 3, seed));
    GadgetProblem gadget = BuildConsistencyGadget(pi2);
    Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
    if (!prepared.ok()) {
      std::fprintf(stderr, "error: %s\n", prepared.status().ToString().c_str());
      return 1;
    }
    Result<bool> consistent = IsConsistent(*prepared, gadget.cinstance);
    if (!consistent.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   consistent.status().ToString().c_str());
      return 1;
    }
    bool via_gadget = !*consistent;  // ϕ true ⇔ Mod(T) empty
    bool direct = pi2.Eval();
    ++total;
    agree += (via_gadget == direct);
    std::printf("forall-exists #%llu: gadget=%d brute=%d  %s\n",
                static_cast<unsigned long long>(seed), via_gadget, direct,
                via_gadget == direct ? "ok" : "MISMATCH");
  }

  std::printf("\n");
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Qbf sigma3 = MakeExistsForallExists(1, 1, 1, RandomCnf3(3, 1, seed));
    GadgetProblem gadget = BuildViableGadget(sigma3);
    Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
    if (!prepared.ok()) {
      std::fprintf(stderr, "error: %s\n", prepared.status().ToString().c_str());
      return 1;
    }
    Result<bool> viable = RcdpViable(gadget.query, gadget.cinstance, *prepared);
    if (!viable.ok()) {
      std::fprintf(stderr, "error: %s\n", viable.status().ToString().c_str());
      return 1;
    }
    bool direct = sigma3.Eval();
    ++total;
    agree += (*viable == direct);
    std::printf("exists-forall-exists #%llu: gadget=%d brute=%d  %s\n",
                static_cast<unsigned long long>(seed),
                static_cast<int>(*viable), direct,
                *viable == direct ? "ok" : "MISMATCH");
  }

  std::printf("\n%d/%d agree\n", agree, total);
  return agree == total ? 0 : 1;
}
