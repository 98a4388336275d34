// MINP — the minimality problem: is T a minimal-size instance complete for Q
// relative to (Dm, V)?
//  - Strong/viable models go through Lemma 4.7: a complete ground instance
//    is non-minimal iff removing a single tuple leaves it complete; for a
//    c-instance, strong minimality quantifies over all worlds (Πp3 — Thm
//    4.8) and viable minimality over some world (Σp3 — Cor 6.3). One
//    GroundCheck per call serves every world and every removal: its
//    admissible tableau valuations do not depend on the instance, and the
//    subsets of a partially closed world are partially closed too.
//  - Weak model: the general subset-removal algorithm (Πp4 for UCQ/∃FO⁺,
//    coNEXPTIME for FP — Thm 5.6) plus the coDP dichotomy for CQ
//    (Lemma 5.7).
#ifndef RELCOMP_CORE_MINP_H_
#define RELCOMP_CORE_MINP_H_

#include "core/rcdp.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// Ground strong (≡ viable) minimality — the Dp2 case of Theorem 4.8:
/// I complete and no I \ {t} complete.
Result<bool> MinpStrongGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const SearchOptions& options = {},
                              SearchStats* stats = nullptr);

/// Strong c-instance minimality (Πp3): every world of Mod(T) is a minimal
/// complete ground instance.
Result<bool> MinpStrong(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options = {},
                        SearchStats* stats = nullptr);

/// Viable c-instance minimality (Σp3): some world of Mod(T) is a minimal
/// complete ground instance.
Result<bool> MinpViable(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options = {},
                        SearchStats* stats = nullptr);

/// Weak-model minimality by subset removal (the paper's Πp4 / coNEXPTIME
/// algorithms): T weakly complete and no proper row-subset weakly complete.
/// Exponential in the number of rows of T.
Result<bool> MinpWeak(const Query& q, const CInstance& cinstance,
                      const PreparedSetting& prepared,
                      const SearchOptions& options = {},
                      SearchStats* stats = nullptr);

/// Weak-model minimality for CQ via the Lemma 5.7 dichotomy (coDP): if the
/// empty instance is weakly complete, T is minimal iff T is empty; otherwise
/// T is minimal iff T is a consistent singleton.
Result<bool> MinpWeakCq(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options = {},
                        SearchStats* stats = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_MINP_H_
