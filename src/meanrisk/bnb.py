"""Depth-first branch-and-bound with value-fixing branching.

Each node fixes one integer variable to a value near its relaxation optimum,
enumerating candidate values by increasing distance so that a bound-pruned
child cuts off every remaining sibling on the same side (node bounds grow
monotonically along each side). Every node with free budget takes one path:
rescale onto the simplex, warmstart from the parent solution, relax with the
conditional-gradient module, then prune by the dual bound, keep a leaf or branch.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from . import fw
from .model import (
    FixedSubproblem,
    MeanRiskInstance,
    RiskWeighting,
    SimplexProblem,
    _INT_TOL,
    _unit,
    eval_f,
    fix_variable,
    grad_f,
    objective_min,
    portfolio_summary,
    simplex_transform,
    solution_checks,
)
from .projection import project_capped_simplex

__all__ = [
    "WarmstartRule",
    "BnbConfig",
    "SolveStatus",
    "SolveReport",
    "Incumbent",
    "ChildValues",
    "greedy_upper_bound",
    "select_branching_variable",
    "warmstart_point",
    "solve",
]

log = logging.getLogger("meanrisk.bnb")


class WarmstartRule(Enum):
    E1 = "e1"
    EHAT = "ehat"
    X_OR_E1 = "x-e1"
    X_OR_PROJ = "x-proj"
    X_OR_EHAT = "x-ehat"


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    TIME_LIMIT = "time_limit"


@dataclass(frozen=True)
class BnbConfig:
    """``warmstart`` is a rule or its string value and is stored as the rule;
    ``monotone`` selects the classical Armijo rule over the non-monotone
    test; ``tol`` is both the relaxation gap and the pruning margin."""

    warmstart: WarmstartRule = WarmstartRule.X_OR_PROJ
    monotone: bool = False
    tol: float = 1e-10
    time_limit: float = 3600.0

    def __post_init__(self):
        object.__setattr__(self, "warmstart", WarmstartRule(self.warmstart))
        if not isinstance(self.monotone, bool):
            raise ValueError(f"monotone must be a boolean, got {self.monotone!r}")
        if not 0.0 < self.tol < math.inf:  # also rejects nan
            raise ValueError("tolerance must be positive and finite")
        if not self.time_limit > 0.0:
            raise ValueError("time limit must be positive")

    def to_dict(self) -> dict:
        """JSON-ready fields, in declaration order."""
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc["warmstart"] = self.warmstart.value
        return doc


@dataclass
class Incumbent:
    y: np.ndarray
    value_min: float


@dataclass
class SolveReport:
    """Final answer in maximization form plus solve statistics.

    ``return_term``, ``nnz`` and ``max_entry`` are ``model.portfolio_summary``
    of ``y``. ``uncertified_leaves`` counts continuous leaves whose relaxation ended
    without an optimality certificate and were re-polished; when it is
    nonzero the reported optimum may be conservative.
    """

    status: SolveStatus
    objective_max: float
    y: np.ndarray
    nodes: int
    fw_iters_total: int
    wall_time: float
    return_term: float
    nnz: int
    max_entry: float
    uncertified_leaves: int

    def to_dict(self) -> dict:
        """JSON-ready fields, in declaration order."""
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc.update(status=self.status.value, y=[float(v) for v in self.y])
        return doc


def _pessimistic_values(M: np.ndarray, r: np.ndarray, h: RiskWeighting) -> np.ndarray:
    """Per-item objective under a pessimistic risk estimate.

    Each item is charged phi of its own variance plus twice every covariance,
    clamped at zero, minus its return.
    """
    risk_est = np.maximum(np.diag(M) + 2.0 * (M.sum(axis=1) - np.diag(M)), 0.0)
    return np.array([h.phi(float(v)) for v in risk_est]) - r


def greedy_upper_bound(inst: MeanRiskInstance, h: RiskWeighting) -> Incumbent:
    """Initial feasible point from profit-ratio greedy filling.

    Each item is charged its pessimistic value (``_pessimistic_values``) per
    unit of price. Items are taken in non-decreasing ratio order while
    profitable: integer items by whole copies, continuous ones fractionally;
    the scan stops when the leftover budget is below every remaining price.
    Falls back to the empty portfolio when that scores better.
    """
    a = inst.a
    ratio = _pessimistic_values(inst.M, inst.r, h) / a
    order = np.argsort(ratio, kind="stable")
    min_price_left = np.minimum.accumulate(a[order][::-1])[::-1]
    integer = frozenset(inst.integer_set)
    y = np.zeros(inst.n)
    remaining = inst.b
    for pos, i in enumerate(order):
        i = int(i)
        if ratio[i] >= 0.0:
            break
        if remaining < min_price_left[pos]:
            break
        if i in integer:
            k = math.floor(remaining / a[i] + 1e-12)
            if k > 0:
                y[i] = float(k)
                remaining -= k * a[i]
        else:
            y[i] = remaining / a[i]
            remaining = 0.0
    value = objective_min(inst, y, h)
    zero_value = h.phi(0.0)
    if value > zero_value:
        return Incumbent(np.zeros(inst.n), zero_value)
    return Incumbent(y, value)


def select_branching_variable(
    sub: FixedSubproblem, integer_set, y_star: np.ndarray
) -> int | None:
    """Unfixed integer variable with the most fractional relaxation value.

    Scores frac*(1-frac); ties go to the lowest original index, and an
    integral relaxation falls back to the lowest-index unfixed integer
    variable. Returns an original index, or None when everything is fixed.
    """
    integer = frozenset(integer_set)
    best, best_score = None, -1.0
    for i in sub.free_index_map:
        if i not in integer:
            continue
        frac = y_star[i] - math.floor(y_star[i])
        score = frac * (1.0 - frac)
        if score > best_score:
            best, best_score = i, score
    return best


class ChildValues:
    """Child fixing values ordered by increasing distance to the relaxation
    value.

    Yields integers from [0, upper] starting at the nearest one (distance
    ties round down), then alternating sides; equal-distance pairs emit the
    smaller value first. ``cut(v)`` drops every remaining value on v's side
    of the relaxation value, which is sound because node bounds only grow
    when moving further from the relaxation optimum on one side.
    """

    def __init__(self, y_star: float, upper: int):
        if upper < 0:
            raise ValueError("upper bound must be nonnegative")
        self.y_star = float(y_star)
        self.upper = int(upper)
        clipped = min(max(self.y_star, 0.0), float(upper))
        floor = math.floor(clipped)
        anchor = floor if clipped - floor <= 0.5 else floor + 1
        self._anchor = min(max(anchor, 0), upper)
        self._started = False
        self._lo = self._anchor - 1
        self._hi = self._anchor + 1

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if not self._started:
            self._started = True
            return self._anchor
        have_lo = self._lo >= 0
        have_hi = self._hi <= self.upper
        if not have_lo and not have_hi:
            raise StopIteration
        if have_lo and have_hi:
            take_lo = self.y_star - self._lo <= self._hi - self.y_star
        else:
            take_lo = have_lo
        if take_lo:
            v = self._lo
            self._lo -= 1
        else:
            v = self._hi
            self._hi += 1
        return v

    def cut(self, v: int) -> None:
        """Drop all not-yet-yielded values on v's side of the relaxation value."""
        if v < self.y_star:
            self._lo = -1
        elif v > self.y_star:
            self._hi = self.upper + 1
        else:
            self._lo = -1
            self._hi = self.upper + 1


def warmstart_point(
    sub: FixedSubproblem,
    p: SimplexProblem,
    parent_y: np.ndarray | None,
    rule: WarmstartRule,
    h: RiskWeighting,
) -> np.ndarray:
    """Feasible starting point for a node relaxation, in simplex coordinates.

    The x-based rules reuse the parent relaxation solution with the just-fixed
    coordinate dropped and the rest rescaled to the child simplex; when that
    point is feasible it is used as-is, otherwise each rule applies its
    fallback (first vertex, greedy vertex, or projection). At the root, where
    no parent solution exists, the x-based rules degrade to their vertex
    fallback.
    """
    x_tilde = None
    if parent_y is not None and p.dim:
        x_tilde = parent_y[list(sub.free_index_map)] / p.scale
    if rule in (WarmstartRule.X_OR_E1, WarmstartRule.X_OR_PROJ, WarmstartRule.X_OR_EHAT):
        if x_tilde is not None and np.all(x_tilde >= -1e-14):
            z = np.maximum(x_tilde, 0.0)
            total = float(z.sum())
            if total <= 1.0 + 1e-12:
                if total > 1.0:
                    z /= total
                return z
    if rule in (WarmstartRule.E1, WarmstartRule.X_OR_E1):
        return _unit(p.dim, 0)
    if rule in (WarmstartRule.EHAT, WarmstartRule.X_OR_EHAT):
        return _unit(p.dim, int(np.argmin(_pessimistic_values(sub.M_s, sub.r_s, h))))
    if x_tilde is None:
        return _unit(p.dim, 0)
    return project_capped_simplex(x_tilde)


def _polish_leaf(p: SimplexProblem, z0: np.ndarray) -> np.ndarray:
    """Local refinement of an uncertified continuous-leaf solution.

    The conditional-gradient loop identifies the optimal face quickly but
    closes a face-interior optimum at O(1/k), which on ill-conditioned nodes
    leaves more error than the leaf value can tolerate. A quasi-Newton solve
    from the FW point finishes the job; any failure falls back to the input.
    The node's dual bound is unaffected, only the candidate value improves.
    """

    def grad(z):
        g = grad_f(p, z)
        # a non-finite slope means the risk term is flat to float at q ~ 0
        return g if np.all(np.isfinite(g)) else -np.asarray(p.mu)

    res = minimize(
        lambda z: eval_f(p, z),
        z0,
        jac=grad,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * p.dim,
        constraints=[
            {"type": "ineq", "fun": lambda z: 1.0 - z.sum(), "jac": lambda z: -np.ones_like(z)}
        ],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    z = np.clip(np.asarray(res.x, dtype=float), 0.0, None)
    total = float(z.sum())
    if total > 1.0:
        z /= total
    return z if eval_f(p, z) < eval_f(p, z0) else z0


class _TimeLimit(Exception):
    pass


@dataclass
class _Frame:
    sub: FixedSubproblem
    y_star: np.ndarray
    branch_pos: int
    children: ChildValues


@dataclass
class _Outcome:
    bound: float  # proven lower bound on the node's optimal value
    frame: _Frame | None = None  # present when the node must be expanded


def solve(
    inst: MeanRiskInstance,
    h: RiskWeighting,
    cfg: BnbConfig = BnbConfig(),
    node_audit: Callable[[SimplexProblem, fw.RelaxationResult], None] | None = None,
) -> SolveReport:
    """Exact solve; returns the best solution found within the time limit.

    ``node_audit``, when given, receives (problem, relaxation result) after
    every node relaxation; it exists for invariant audits and has no effect
    on the search.
    """
    t_start = time.monotonic()
    deadline = t_start + cfg.time_limit
    integer = frozenset(inst.integer_set)
    int_idx = np.array(inst.integer_set, dtype=np.intp)
    inc = greedy_upper_bound(inst, h)
    nodes = 0
    fw_iters = 0
    uncertified = 0
    status = SolveStatus.OPTIMAL

    def threshold() -> float:
        return inc.value_min - cfg.tol

    def consider(y: np.ndarray) -> None:
        """Adopt a candidate if it passes ``solution_checks`` and beats the
        incumbent. Negative entries are clipped and integer coordinates
        within 1e-8 of an integer snapped, to kill Frank-Wolfe dust."""
        nonlocal inc
        y = np.maximum(np.asarray(y, dtype=float), 0.0)
        snapped = np.round(y[int_idx])
        near = np.abs(y[int_idx] - snapped) <= 1e-8
        y[int_idx[near]] = snapped[near]
        failed = [label for label, ok, _ in solution_checks(inst, y) if not ok]
        if failed:
            log.error("candidate rejected: %s", ", ".join(failed))
            return
        value = objective_min(inst, y, h)
        if value < inc.value_min:
            inc = Incumbent(y, value)

    def process(sub: FixedSubproblem, parent_y: np.ndarray | None) -> _Outcome:
        nonlocal nodes, fw_iters, uncertified
        if time.monotonic() > deadline:
            raise _TimeLimit
        nodes += 1

        if sub.dim == 0 or sub.b_s <= 0.0:
            # fully determined: every free variable is forced to zero
            y = sub.assemble(np.zeros(sub.dim))
            consider(y)
            return _Outcome(bound=objective_min(inst, y, h))

        p = simplex_transform(sub, h)
        z0 = warmstart_point(sub, p, parent_y, cfg.warmstart, h)
        res = fw.solve_relaxation(
            p, z0, prune_threshold=threshold(), monotone=cfg.monotone, gap_tol=cfg.tol
        )
        fw_iters += res.iters
        if node_audit is not None:
            node_audit(p, res)
        bound = res.dual_bound
        # PRUNED_BY_BOUND stops here: the incumbent cannot change during a
        # relaxation, so its bound reached this threshold. So does
        # ORIGIN_OPTIMAL: its bound f(0), the empty portfolio's value, is >= greedy's
        if bound >= threshold():
            return _Outcome(bound=bound)
        y_star = sub.assemble(res.z_star * p.scale)
        relax_optimal = res.status is fw.RelaxationStatus.OPTIMAL

        free_int = [i for i in sub.free_index_map if i in integer]
        if not free_int:
            # continuous leaf: the relaxation solution is the node solution
            if not relax_optimal:
                uncertified += 1
                y_star = sub.assemble(_polish_leaf(p, res.z_star) * p.scale)
            consider(y_star)
            return _Outcome(bound=bound)

        if relax_optimal and all(
            abs(y_star[i] - round(y_star[i])) <= _INT_TOL for i in free_int
        ):
            # integral relaxation optimum solves the node exactly
            consider(y_star)
            return _Outcome(bound=bound)

        branch = select_branching_variable(sub, integer, y_star)
        pos = sub.free_index_map.index(branch)
        upper = int(math.floor(sub.b_s / sub.a_s[pos] + 1e-12))
        children = ChildValues(y_star[branch], upper)
        return _Outcome(bound=bound, frame=_Frame(sub, y_star, pos, children))

    try:
        stack: list[_Frame] = []
        out = process(FixedSubproblem.root(inst), None)
        if out.frame is not None:
            stack.append(out.frame)
        while stack:
            frame = stack[-1]
            v = next(frame.children, None)
            if v is None:
                stack.pop()
                continue
            child = fix_variable(frame.sub, frame.branch_pos, v)
            out = process(child, frame.y_star)
            if out.frame is not None:
                stack.append(out.frame)
            elif out.bound >= threshold():
                frame.children.cut(v)
    except _TimeLimit:
        status = SolveStatus.TIME_LIMIT

    return SolveReport(
        status=status,
        objective_max=-inc.value_min + 0.0,  # +0.0 kills the "-0" rendering
        y=inc.y,
        nodes=nodes,
        fw_iters_total=fw_iters,
        wall_time=time.monotonic() - t_start,
        uncertified_leaves=uncertified,
        **portfolio_summary(inst, inc.y),
    )
