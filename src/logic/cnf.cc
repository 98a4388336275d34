#include "logic/cnf.h"

namespace relcomp {

bool Cnf3::Eval(uint64_t assignment) const {
  for (const Clause3& clause : clauses) {
    bool sat = false;
    for (const Lit& lit : clause) {
      bool v = (assignment >> lit.var) & 1;
      if (lit.neg ? !v : v) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

bool Cnf3::IsSatisfiable() const {
  uint64_t limit = uint64_t{1} << num_vars;
  for (uint64_t a = 0; a < limit; ++a) {
    if (Eval(a)) return true;
  }
  return false;
}

std::string Cnf3::ToString() const {
  std::string out;
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " & ";
    out += "(" + clauses[i][0].ToString() + " | " + clauses[i][1].ToString() +
           " | " + clauses[i][2].ToString() + ")";
  }
  return out;
}

Cnf3 RandomCnf3(int num_vars, int num_clauses, uint64_t seed) {
  // SplitMix64; deterministic across platforms.
  auto next = [&seed]() {
    seed += 0x9E3779B97F4A7C15ull;
    uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  Cnf3 cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    Clause3 clause;
    for (int j = 0; j < 3; ++j) {
      clause[j].var =
          static_cast<int>(next() % static_cast<uint64_t>(num_vars));
      clause[j].neg = (next() & 1) != 0;
    }
    cnf.clauses.push_back(clause);
  }
  return cnf;
}

}  // namespace relcomp
