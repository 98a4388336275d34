// Quantified 3SAT instances with alternating blocks, evaluated by brute
// force. The paper's lower bounds reduce from ∀∃ (Πp2), ∃∀∃ (Σp3), ∀∃∀∃ (Πp4)
// 3SAT; these evaluators are the ground-truth oracles for those reductions.
#ifndef RELCOMP_LOGIC_QBF_H_
#define RELCOMP_LOGIC_QBF_H_

#include <vector>

#include "logic/cnf.h"

namespace relcomp {

/// A quantifier block: kind plus the number of consecutive variables it
/// binds. Blocks bind variables left to right: the first block binds
/// variables [0, size), the next [size, size+size'), etc.
struct QuantifierBlock {
  bool forall = false;  // false: ∃, true: ∀
  int size = 0;
};

/// A quantified Boolean formula over a 3CNF matrix.
struct Qbf {
  std::vector<QuantifierBlock> blocks;
  Cnf3 matrix;

  /// Brute-force truth evaluation (total vars ≤ ~20 practical).
  bool Eval() const;
};

/// ∀X ∃Y ψ with |X| = nx, |Y| = ny (X's variables come first).
Qbf MakeForallExists(int nx, int ny, Cnf3 matrix);

/// ∃X ∀Y ∃Z ψ.
Qbf MakeExistsForallExists(int nx, int ny, int nz, Cnf3 matrix);

/// ∀X ∃Y ∀Z ∃W ψ.
Qbf MakeForallExistsForallExists(int nx, int ny, int nz, int nw, Cnf3 matrix);

}  // namespace relcomp

#endif  // RELCOMP_LOGIC_QBF_H_
