/**
 * @file
 * Internal to linalg: the compiled instances of the column-blocked
 * forward substitution behind Cholesky::solveLowerColumns(), one per
 * vector-lane width. solveLowerColumns() runs the widest instance the
 * CPU supports; tests and benches use this header to reach every
 * instance, or to report which one is active.
 */

#ifndef UNICO_LINALG_LANES_HH
#define UNICO_LINALG_LANES_HH

#include <cstddef>
#include <vector>

#include "linalg/matrix.hh"

namespace unico::linalg::detail {

/** One instance of the blocked solve at a fixed lane width. */
struct LanePath
{
    const char *name;
    std::size_t laneDoubles; ///< doubles per vector register
    std::size_t panelColumns; ///< columns that share one pass over L
    /** True when this CPU (and its OS) can run the instance. */
    bool (*supported)();
    /** Y = L⁻¹B for a lower-triangular L; bitwise equal across
     *  instances and to column-by-column Cholesky::solveLower(). */
    Matrix (*solveLowerColumns)(const Matrix &lower, const Matrix &b);
};

/** Every compiled instance, baseline (runs everywhere) first. */
const std::vector<LanePath> &lanePaths();

/** The widest supported instance, chosen once on first use. */
const LanePath &activeLanePath();

} // namespace unico::linalg::detail

#endif // UNICO_LINALG_LANES_HH
