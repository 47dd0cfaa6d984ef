"""Brute-force reference solver: exhaustive integer enumeration plus an
independent continuous optimizer.

Deliberately shares nothing with the conditional-gradient module beyond the
simplex projection: objectives are evaluated directly on assembled
full-length vectors and the continuous completions are optimized by projected
gradient (plus an exact active-set path for quadratic weightings), so
agreement with the branch-and-bound solver is meaningful evidence of
correctness rather than a tautology. Exponential cost; small instances only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import (
    MeanRiskInstance,
    QuadraticRisk,
    RiskWeighting,
    objective_min,
)
from .projection import project_capped_simplex

__all__ = [
    "EnumerationBudgetExceeded",
    "oracle_solve",
    "continuous_min_pgd",
    "continuous_min_kkt",
]


class EnumerationBudgetExceeded(Exception):
    """The integer search space is too large for exhaustive enumeration."""


def oracle_solve(inst: MeanRiskInstance, h: RiskWeighting, enum_budget: int = 10**6):
    """Exact maximum by enumerating every budget-feasible integer assignment.

    For each assignment the continuous remainder is minimized independently;
    with a quadratic weighting an exact active-set enumeration also runs and
    the better answer wins. Returns (objective_max, y). Deterministic: no
    randomness anywhere.
    """
    int_idx = list(inst.integer_set)
    cont_idx = [i for i in range(inst.n) if i not in set(int_idx)]
    uppers = [int(math.floor(inst.b / inst.a[i] + 1e-12)) for i in int_idx]
    total = 1
    for u in uppers:
        total *= u + 1
        if total > enum_budget:
            raise EnumerationBudgetExceeded(
                f"integer grid exceeds {enum_budget} assignments"
            )
    best_val = math.inf
    best_y = np.zeros(inst.n)
    for combo in itertools.product(*(range(u + 1) for u in uppers)):
        y = np.zeros(inst.n)
        if int_idx:
            y[int_idx] = combo
        spent = float(inst.a[int_idx] @ y[int_idx]) if int_idx else 0.0
        rem = inst.b - spent
        if rem < -1e-9:
            continue
        rem = max(rem, 0.0)
        if cont_idx and rem > 0.0:
            y[cont_idx] = _continuous_completion(inst, h, y, cont_idx, rem)
        val = objective_min(inst, y, h)
        if val < best_val:
            best_val = val
            best_y = y
    return -best_val, best_y


def _continuous_completion(inst, h, y_fixed, cont_idx, rem):
    """Best continuous block given the frozen integer block.

    Candidates: the zero block, each single-variable full spend, projected
    gradient from an interior start, and (quadratic weightings) the exact
    active-set solution. The best evaluated candidate wins.
    """
    def value_of(yc):
        y = y_fixed.copy()
        y[cont_idx] = yc
        return objective_min(inst, y, h)

    dim = len(cont_idx)
    candidates = [np.zeros(dim)]
    for k in range(dim):
        vert = np.zeros(dim)
        vert[k] = rem / float(inst.a[cont_idx[k]])
        candidates.append(vert)
    candidates.append(continuous_min_pgd(inst, h, y_fixed, cont_idx, rem))
    if isinstance(h, QuadraticRisk) and h.omega > 0.0:
        kkt = continuous_min_kkt(inst, h, y_fixed, cont_idx, rem)
        if kkt is not None:
            candidates.append(kkt)
    values = [value_of(yc) for yc in candidates]
    return candidates[int(np.argmin(values))]


def continuous_min_pgd(
    inst: MeanRiskInstance,
    h: RiskWeighting,
    y_fixed: np.ndarray,
    cont_idx,
    rem: float,
    max_iter: int = 10**6,
    tol: float = 1e-9,
):
    """Projected gradient on the continuous block, in simplex coordinates.

    The block is rescaled by rem/a_i onto the capped unit simplex and driven
    by full-vector objective and gradient evaluations. The stepsize halves
    whenever the sufficient-decrease test fails and regrows after successes;
    iteration stops when the move shrinks below ``tol``. Deterministic
    interior start; the caller compares the result against vertex and zero
    candidates, which covers minima at the non-smooth origin.
    """
    a_c = inst.a[cont_idx]
    scale = rem / a_c
    y = y_fixed.copy()

    def value(z):
        y[cont_idx] = scale * z
        return objective_min(inst, y, h)

    def gradient(z):
        y[cont_idx] = scale * z
        My = inst.M @ y
        slope = h.dphi(max(float(y @ My), 0.0))
        if not math.isfinite(slope):
            return None
        gy = 2.0 * slope * My - inst.r
        return gy[cont_idx] * scale

    dim = len(cont_idx)
    z = np.full(dim, 1.0 / (2.0 * dim))
    fz = value(z)
    step = 1.0
    for _ in range(max_iter):
        g = gradient(z)
        if g is None or not np.all(np.isfinite(g)):
            break
        while True:
            z_new = project_capped_simplex(z - step * g)
            dz = z_new - z
            f_new = value(z_new)
            ok = f_new <= fz + float(g @ dz) + float(dz @ dz) / (2.0 * step) + 1e-15 * (
                1.0 + abs(fz)
            )
            if ok or step < 1e-18:
                break
            step *= 0.5
        move = float(np.linalg.norm(z_new - z))
        z, fz = z_new, f_new
        step *= 1.25
        if move <= tol * max(1.0, float(np.linalg.norm(z))):
            break
    return scale * z


def continuous_min_kkt(
    inst: MeanRiskInstance,
    h: QuadraticRisk,
    y_fixed: np.ndarray,
    cont_idx,
    rem: float,
):
    """Exact continuous block for quadratic weightings by active-set
    enumeration.

    f restricted to the block is the smooth quadratic
    omega y'My - r'y (fixed block frozen); every KKT point has some subset of
    the block at zero with the budget either slack or tight, so all
    2^dim * 2 stationarity systems are solved and the best feasible solution
    returned. None when no pattern yields a feasible point (cannot happen for
    PD M, but kept defensive).
    """
    om = h.omega
    cont = np.asarray(cont_idx, dtype=int)
    dim = cont.size
    M_cc = inst.M[np.ix_(cont, cont)]
    lin = 2.0 * om * (inst.M @ y_fixed)[cont] - inst.r[cont]  # gradient at the zero block
    a_c = inst.a[cont]

    def value_of(yc):
        y = y_fixed.copy()
        y[cont] = yc
        return objective_min(inst, y, h)

    best = None
    best_val = math.inf
    for mask in range(1 << dim):
        free = [k for k in range(dim) if mask >> k & 1]
        for cap_tight in (False, True):
            yc = np.zeros(dim)
            if free:
                m = len(free)
                A_ff = 2.0 * om * M_cc[np.ix_(free, free)]
                rhs = -lin[free]
                try:
                    if cap_tight:
                        kkt = np.zeros((m + 1, m + 1))
                        kkt[:m, :m] = A_ff
                        kkt[:m, m] = a_c[free]
                        kkt[m, :m] = a_c[free]
                        sol = np.linalg.solve(kkt, np.append(rhs, rem))
                        yc[free] = sol[:m]
                    else:
                        yc[free] = np.linalg.solve(A_ff, rhs)
                except np.linalg.LinAlgError:
                    continue
            elif cap_tight:
                continue  # empty block cannot meet a tight budget
            if np.any(yc < -1e-10):
                continue
            spend = float(a_c @ yc)
            if cap_tight:
                if abs(spend - rem) > 1e-8 * max(1.0, rem):
                    continue
            elif spend > rem * (1.0 + 1e-10) + 1e-10:
                continue
            yc = np.maximum(yc, 0.0)
            val = value_of(yc)
            if val < best_val:
                best_val = val
                best = yc
    return best
