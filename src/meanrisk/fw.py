"""Away-step conditional-gradient solver with a non-monotone Armijo line search.

Minimizes f(z) = phi(z'Qz + c'z + d) - mu'z - t_off over the capped unit
simplex, where phi(q) = h(sqrt(q)) is the node's risk weighting; the solver
touches the weighting only through ``phi`` and ``dphi``. Each iteration picks
the better of a toward step (best vertex for the linearized objective,
including the origin) and an away step (move mass off the worst active
vertex), then takes the first stepsize alpha_max * DELTA^j that passes an
Armijo test against the maximum of the last few objective values rather than
the current one, which lets the iterate climb briefly out of bad corners.

Because f is convex along the step, the passing stepsizes form an interval,
so the line search predicts j from a quadratic model and confirms it with
about two trials instead of scanning j = 0, 1, ... Trial objective values
cost O(1) thanks to incremental caches of z'Qz, c'z, mu'z and sum(z);
accepting a step costs O(dim) to update z and the cached matrix-vector
product Q z.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.optimize

from .model import SimplexProblem, _risk_gradient, _unit, eval_f

__all__ = [
    "ALPHA_CAP",
    "MAX_HALVINGS",
    "DELTA",
    "GAMMA1",
    "GAMMA2",
    "BETA",
    "FwConfig",
    "StepKind",
    "RelaxationStatus",
    "LineSearchStall",
    "IterateState",
    "select_direction",
    "line_search",
    "OriginCheck",
    "origin_optimality_check",
    "RelaxationDiagnostics",
    "RelaxationResult",
    "solve_relaxation",
]

log = logging.getLogger("meanrisk.fw")

# Sentinel cap for away stepsizes whose exact formula divides by ~0; the line
# search shrinks any oversized cap immediately.
ALPHA_CAP = 1e6
MAX_HALVINGS = 200
# The paper's fixed line-search and away-step constants: trial stepsizes
# alpha_max * DELTA^j; Armijo weights GAMMA1 on g'd and GAMMA2 on ||d||^2;
# an away step needs a feasibility cap above BETA.
DELTA = 0.5
GAMMA1 = 1e-4
GAMMA2 = 1e-6
BETA = 1e-6
_STALL_ALPHA = 1e-10
_STALL_PATIENCE = 50
_DRIFT_MIN_SHRINK = 0.15


class LineSearchStall(RuntimeError):
    """No stepsize alpha_max * DELTA^j with j <= MAX_HALVINGS passes the test."""


class StepKind(Enum):
    TOWARD = "toward"
    AWAY = "away"


class RelaxationStatus(Enum):
    OPTIMAL = "optimal"
    PRUNED_BY_BOUND = "pruned_by_bound"
    ITER_LIMIT = "iter_limit"
    ORIGIN_OPTIMAL = "origin_optimal"


@dataclass(frozen=True)
class FwConfig:
    """Settings of one relaxation solve.

    ``p_nm`` is the length of the objective-value memory behind the
    non-monotone acceptance test; 0 recovers the classical monotone Armijo
    rule. ``self_check`` re-verifies every accepted step against a
    from-scratch objective evaluation (slow; meant for audits and tests).
    The Armijo and away-step constants are module constants, not settings.

    ``drift_window`` > 0 arms an early-exit heuristic: if the bracket
    between the best objective seen and the dual bound shrinks by less
    than 15% over that many iterations, the solve stops with ITER_LIMIT
    and the (still valid) dual bound. Useful inside branch and bound,
    where slow tail convergence buys nothing; leave at 0 when the caller
    needs the tightest certificate the arithmetic can deliver.
    """

    p_nm: int = 1
    gap_tol: float = 1e-10
    max_iter: int = 50_000
    self_check: bool = False
    drift_window: int = 0

    def __post_init__(self):
        if self.p_nm < 0:
            raise ValueError("p_nm must be nonnegative")
        if self.gap_tol <= 0.0:
            raise ValueError("gap_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.drift_window < 0:
            raise ValueError("drift_window must be nonnegative")


class IterateState:
    """Mutable solver iterate with O(1)-update caches.

    Keeps Qz, z'Qz, c'z, mu'z and sum(z) in sync with z so a trial objective
    costs O(1) and a full step costs O(dim). ``f_hist`` holds the most recent
    objective values (current included) feeding the non-monotone threshold.
    """

    __slots__ = ("p", "z", "Qz", "zQz", "cz", "muz", "sum_z", "f_hist", "k", "f_cur")

    def __init__(self, p: SimplexProblem, z: np.ndarray, p_nm: int):
        self.p = p
        self.z = np.array(z, dtype=float)
        if self.z.shape != (p.dim,):
            raise ValueError("start point has the wrong dimension")
        self.Qz = p.Q @ self.z
        self.zQz = float(self.z @ self.Qz)
        self.cz = float(p.c @ self.z)
        self.muz = float(p.mu @ self.z)
        self.sum_z = float(self.z.sum())
        self.k = 0
        self.f_cur = self._objective(self.zQz, self.cz, self.muz)
        self.f_hist = deque([self.f_cur], maxlen=p_nm + 1)

    @classmethod
    def from_point(cls, p: SimplexProblem, z0, p_nm: int = 1) -> "IterateState":
        return cls(p, np.asarray(z0, dtype=float), p_nm)

    def _objective(self, zQz: float, cz: float, muz: float) -> float:
        return self.p.h.phi(max(zQz + cz + self.p.d, 0.0)) - muz - self.p.t_off

    @property
    def q(self) -> float:
        return max(self.zQz + self.cz + self.p.d, 0.0)

    def f_bar(self) -> float:
        return max(self.f_hist)

    def gradient(self) -> np.ndarray:
        """dphi(q) (2Qz + c) - mu; all nan where dphi is infinite."""
        return _risk_gradient(self.p.h, self.q, 2.0 * self.Qz + self.p.c, self.p.mu)

    def _advanced(self, vertex: int | None, tau: float):
        """Scalar caches after z -> (1 - tau) z + tau v, state untouched.

        vertex None means v = 0 (the origin); away steps use tau = -alpha.
        """
        w = 1.0 - tau
        if vertex is None:
            zQz = w * w * self.zQz
            cz = w * self.cz
            muz = w * self.muz
            sum_z = w * self.sum_z
        else:
            zQz = (
                w * w * self.zQz
                + 2.0 * tau * w * float(self.Qz[vertex])
                + tau * tau * float(self.p.Q[vertex, vertex])
            )
            cz = w * self.cz + tau * float(self.p.c[vertex])
            muz = w * self.muz + tau * float(self.p.mu[vertex])
            sum_z = w * self.sum_z + tau
        return zQz, cz, muz, sum_z

    def trial_objective(self, vertex: int | None, tau: float) -> float:
        zQz, cz, muz, _ = self._advanced(vertex, tau)
        return self._objective(zQz, cz, muz)

    def apply_step(self, vertex: int | None, kind: StepKind, alpha: float) -> None:
        tau = alpha if kind is StepKind.TOWARD else -alpha
        zQz, cz, muz, sum_z = self._advanced(vertex, tau)
        w = 1.0 - tau
        self.z *= w
        if vertex is None:
            self.Qz *= w
        else:
            self.z[vertex] += tau
            self.Qz = w * self.Qz + tau * self.p.Q[vertex]
        np.maximum(self.z, 0.0, out=self.z)  # away steps leave -1e-17 dust
        self.zQz, self.cz, self.muz, self.sum_z = zQz, cz, muz, sum_z
        self.f_cur = self._objective(zQz, cz, muz)
        self.f_hist.append(self.f_cur)
        self.k += 1

    def cache_errors(self) -> dict[str, float]:
        """Relative drift of every cache versus a from-scratch recomputation."""
        Qz = self.p.Q @ self.z

        def rel(cached: float, exact: float) -> float:
            return abs(cached - exact) / max(1.0, abs(exact))

        return {
            "Qz": float(np.max(np.abs(self.Qz - Qz))) / max(1.0, float(np.max(np.abs(Qz)))),
            "zQz": rel(self.zQz, float(self.z @ Qz)),
            "cz": rel(self.cz, float(self.p.c @ self.z)),
            "muz": rel(self.muz, float(self.p.mu @ self.z)),
            "sum_z": rel(self.sum_z, float(self.z.sum())),
        }


def select_direction(st: IterateState, g: np.ndarray, beta: float):
    """Toward or away step at the iterate, for the gradient g.

    Toward candidates are the origin (score 0) and the unit vertices (score
    g_i); ties prefer the origin, then the lowest index. Away candidates are
    the origin (active when sum(z) > 0) and the unit vertices in the support
    of z that score g_i >= 0; ties prefer the lowest index, the origin last.
    The away step wins iff it linearizes at least as well and its
    feasibility cap exceeds ``beta``.

    Works on scalars only, without building d: the toward step has
    d = v - z with stepsize cap 1, the away step d = z - v, so
    ||d||^2 = ||z||^2 - 2 z_v + 1 (or ||z||^2 against the origin). Returns
    (kind, vertex, g_dot_d, alpha_max, gap_ts, d_sq), with gap_ts the
    toward-step gap, <= 0 at any feasible point.
    """
    z = st.z
    gz = float(g @ z)
    zz = float(z @ z)
    i_ts = int(np.argmin(g))
    v_ts = None
    score_ts = 0.0
    if g[i_ts] < 0.0:
        v_ts, score_ts = i_ts, float(g[i_ts])
    gap_ts = score_ts - gz
    v_as = None
    score_as = 0.0
    if st.sum_z > 0.0:
        i_as = int(np.argmax(np.where(z > 0.0, g, -np.inf)))
        if g[i_as] >= 0.0:
            v_as, score_as = i_as, float(g[i_as])
    if v_as is None:
        alpha_as = (1.0 - st.sum_z) / st.sum_z if st.sum_z > 0.0 else ALPHA_CAP
    else:
        zi = float(z[v_as])
        alpha_as = zi / (1.0 - zi) if zi < 1.0 else ALPHA_CAP
    alpha_as = min(alpha_as, ALPHA_CAP)
    g_as = gz - score_as
    if g_as <= gap_ts and alpha_as > beta:
        kind, vertex, g_dot_d, alpha_max = StepKind.AWAY, v_as, g_as, alpha_as
    else:
        kind, vertex, g_dot_d, alpha_max = StepKind.TOWARD, v_ts, gap_ts, 1.0
    d_sq = zz if vertex is None else zz - 2.0 * float(z[vertex]) + 1.0
    return kind, vertex, g_dot_d, alpha_max, gap_ts, max(d_sq, 0.0)


def line_search(
    p: SimplexProblem,
    st: IterateState,
    vertex: int | None,
    kind: StepKind,
    g_dot_d: float,
    d_sq: float,
    alpha_max: float,
):
    """First stepsize in alpha_max * DELTA^j passing the non-monotone test.

    Acceptance: f(z + alpha d) <= max(recent f) + GAMMA1 alpha g'd
    - GAMMA2 alpha^2 ||d||^2. Along d, f is convex (h convex and
    non-decreasing of a norm of an affine map) and the right-hand side is
    concave in alpha; both agree at alpha = 0 up to f(z) <= max(recent f). So
    the accepted stepsizes form an interval [0, alpha_bar], and the first
    accepted j of the scan j = 0, 1, ... is the smallest j with
    alpha_max DELTA^j <= alpha_bar.

    Rather than scan, j is predicted from the acceptance boundary of the
    quadratic model f + a g'd + a^2 dphi(q) d'Qd (exact for the quadratic
    weighting) and then confirmed with O(1) trials: from a passing guess,
    move to larger steps while they pass; from a failing one, to smaller
    steps until one does. Non-finite trials fail. Returns (alpha, j): in
    exact arithmetic the step and index the scan finds, and in floating point
    the same unless rounding breaks the interval (a pass at a larger step
    separated from j by failures). Raises ``LineSearchStall`` when no
    j <= MAX_HALVINGS passes.
    """
    f_bar = st.f_bar()
    sign = 1.0 if kind is StepKind.TOWARD else -1.0

    def passes(j: int) -> bool:
        alpha = alpha_max * DELTA**j
        f_trial = st.trial_objective(vertex, sign * alpha)
        return f_trial <= f_bar + GAMMA1 * alpha * g_dot_d - GAMMA2 * alpha * alpha * d_sq

    j = _predicted_index(p, st, vertex, g_dot_d, d_sq, f_bar, alpha_max)
    if passes(j):
        while j > 0 and passes(j - 1):
            j -= 1
    else:
        j += 1
        while j <= MAX_HALVINGS and not passes(j):
            j += 1
        if j > MAX_HALVINGS:
            raise LineSearchStall(f"no acceptable stepsize after {MAX_HALVINGS} halvings")
    return alpha_max * DELTA**j, j


def _predicted_index(
    p: SimplexProblem,
    st: IterateState,
    vertex: int | None,
    g_dot_d: float,
    d_sq: float,
    f_bar: float,
    alpha_max: float,
) -> int:
    """Smallest j with alpha_max DELTA^j inside the quadratic model's accepted interval.

    The model boundary is the positive root of A a^2 + B a - C with
    A = dphi(q) d'Qd + GAMMA2 ||d||^2, B = (1 - GAMMA1) g'd and
    C = f_bar - f(z); d'Qd comes from the cached z'Qz and Qz. Where the
    model gives no finite root (no curvature, no descent, infinite dphi) the
    search starts at j = 0.
    """
    if vertex is None:
        dQd = st.zQz
    else:
        dQd = float(p.Q[vertex, vertex]) - 2.0 * float(st.Qz[vertex]) + st.zQz
    a = p.h.dphi(st.q) * max(dQd, 0.0) + GAMMA2 * d_sq
    b = (1.0 - GAMMA1) * g_dot_d
    c = f_bar - st.f_cur
    if not (a > 0.0 and b < 0.0):
        return 0
    ratio = (math.sqrt(b * b + 4.0 * a * c) - b) / (2.0 * a) / alpha_max
    if not ratio < 1.0:  # also catches inf and nan
        return 0
    if ratio == 0.0:  # underflow: the boundary is below every grid step
        return MAX_HALVINGS
    return min(math.ceil(math.log(ratio) / math.log(DELTA)), MAX_HALVINGS)


@dataclass
class OriginCheck:
    """Outcome of the optimality test at z = 0 on a d = 0, c = 0 node.

    ``certificate``, present when the origin is rejected, is a nonnegative,
    nonzero direction of strict descent at the origin. ``inner_value`` is the
    value of the nonnegative least-squares subproblem when one was solved.
    ``converged`` is always True: both branches of the check are exact. The
    field stays because tracing tools count unconverged checks from it.
    """

    origin_optimal: bool
    inner_value: float | None = None
    certificate: np.ndarray | None = field(default=None, repr=False)
    converged: bool = True


def origin_optimality_check(p: SimplexProblem) -> OriginCheck:
    """Decide whether z = 0 minimizes a node whose root term vanishes there.

    Only meaningful when d = 0 and c = 0, where f may lose differentiability
    at the origin. With zero slope at the origin (quadratic or thresholded
    weightings) the test is closed-form: the origin is optimal iff mu <= 0.
    Otherwise optimality is equivalent to min_{y>=0} (y+mu)'Q^{-1}(y+mu)
    <= h'(0)^2. With Q = LL' that is the nonnegative least-squares problem
    min_{y>=0} ||L^{-1}y + L^{-1}mu||, which Lawson-Hanson NNLS solves
    exactly in finitely many steps.

    At the NNLS solution g = Q^{-1}(y+mu) satisfies g >= 0 and y'g = 0, so
    mu'g = g'Qg = inner value; along g the slope of f at the origin is
    sqrt(v) (h'(0) - sqrt(v)) with v the inner value, negative whenever the
    origin is rejected. max(g, 0) is returned as the descent certificate.
    """
    if p.d != 0.0 or np.any(p.c != 0.0):
        raise ValueError("origin check applies only to nodes with d = 0 and c = 0")
    mu = p.mu
    hp0 = p.h.origin_slope
    if hp0 <= 0.0:
        if np.all(mu <= 0.0):
            return OriginCheck(True)
        return OriginCheck(False, certificate=_unit(p.dim, int(np.argmax(mu))))

    _, fy, g = _origin_nnls(p.Q, mu)
    if fy <= hp0 * hp0 + 1e-10:
        return OriginCheck(True, inner_value=fy)
    return OriginCheck(False, inner_value=fy, certificate=np.maximum(g, 0.0))


def _origin_nnls(Q: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimizer y of (y+mu)'Q^{-1}(y+mu) over y >= 0, its value and Q^{-1}(y+mu).

    Solved as min_{y>=0} ||L^{-1}(y + mu)|| with Q = LL'; the value is
    recomputed from the residual through the Cholesky factor.
    """
    chol = scipy.linalg.cholesky(Q, lower=True)
    l_inv = scipy.linalg.solve_triangular(chol, np.eye(mu.size), lower=True)
    y, _ = scipy.optimize.nnls(l_inv, -(l_inv @ mu))
    r = l_inv @ (y + mu)
    return y, float(r @ r), l_inv.T @ r


@dataclass
class RelaxationDiagnostics:
    """Per-iteration traces, populated when passed to the solver."""

    f: list = field(default_factory=list)
    f_bar: list = field(default_factory=list)
    gap_ts: list = field(default_factory=list)
    dual: list = field(default_factory=list)
    halvings: list = field(default_factory=list)


@dataclass
class RelaxationResult:
    z_star: np.ndarray
    f_star: float
    dual_bound: float
    status: RelaxationStatus
    iters: int
    state: IterateState | None = field(default=None, repr=False)

    @classmethod
    def at_origin(cls, p: SimplexProblem) -> "RelaxationResult":
        """Result for a node proven optimal at z = 0 by the origin check."""
        z = np.zeros(p.dim)
        f0 = eval_f(p, z)
        return cls(z, f0, f0, RelaxationStatus.ORIGIN_OPTIMAL, 0)


def _verify_step(
    p: SimplexProblem,
    st: IterateState,
    f_bar: float,
    kind: StepKind,
    g_dot_d: float,
    alpha: float,
    d_sq: float,
) -> None:
    # the acceptance test ran on O(1) cache arithmetic; re-evaluating from
    # scratch follows a different float path, hence the small slack
    f_scratch = eval_f(p, st.z)
    rhs = f_bar + GAMMA1 * alpha * g_dot_d - GAMMA2 * alpha * alpha * d_sq
    slack = 1e-9 * (1.0 + abs(f_bar) + abs(f_scratch))
    if not f_scratch <= rhs + slack:
        raise AssertionError(
            f"accepted step fails the acceptance test on re-evaluation: "
            f"{f_scratch!r} > {rhs!r} (alpha={alpha!r}, kind={kind})"
        )


def solve_relaxation(
    p: SimplexProblem,
    z0,
    prune_threshold: float | None = None,
    cfg: FwConfig = FwConfig(),
    diag: RelaxationDiagnostics | None = None,
) -> RelaxationResult:
    """Run the conditional-gradient loop from a feasible starting point.

    Stops when the toward-step gap certifies optimality within ``gap_tol``,
    when the running dual bound (max over iterations of f + gap) reaches
    ``prune_threshold``, or at the iteration limit. The dual bound is a valid
    lower bound on the optimal value in every case, including early aborts on
    numerical breakdown.
    """
    st = IterateState(p, np.asarray(z0, dtype=float), cfg.p_nm)
    if p.d == 0.0 and st.sum_z == 0.0:
        raise ValueError(
            "start point must avoid the origin when the root term vanishes there; "
            "run the origin optimality check first"
        )
    dual = -math.inf
    status = RelaxationStatus.ITER_LIMIT
    iters = 0
    # Two plateau guards, both exiting with the valid running dual bound:
    #  - float64 can pin the gap above gap_tol when the remaining improvement
    #    is below ulp(f); the line search then accepts ~1e-16 steps that leave
    #    the iterate frozen (always on),
    #  - ill-conditioned nodes (tiny lambda_min(Q)) drift at O(1/k) toward a
    #    face-interior optimum, so closing the last decades of gap would take
    #    ~1e7 iterations; when drift_window > 0, stop once the bracket
    #    f_best - dual shrinks too slowly across a window.
    f_best = st.f_cur
    stalled = 0
    u_prev = math.inf
    next_check = cfg.drift_window if cfg.drift_window > 0 else cfg.max_iter + 1
    for _ in range(cfg.max_iter):
        iters += 1
        g = st.gradient()
        if not math.isfinite(float(g.sum())):
            log.warning("non-finite gradient; node keeps its last valid bound")
            break
        kind, vertex, g_dot_d, alpha_max, gap_ts, d_sq = select_direction(st, g, BETA)
        dual = max(dual, st.f_cur + gap_ts)
        if diag is not None:
            diag.f.append(st.f_cur)
            diag.f_bar.append(st.f_bar())
            diag.gap_ts.append(gap_ts)
            diag.dual.append(dual)
        if gap_ts >= -cfg.gap_tol:
            status = RelaxationStatus.OPTIMAL
            break
        if prune_threshold is not None and dual >= prune_threshold:
            status = RelaxationStatus.PRUNED_BY_BOUND
            break
        if iters >= next_check:
            u = f_best - dual
            if u <= 0.0 or u > (1.0 - _DRIFT_MIN_SHRINK) * u_prev:
                log.debug(
                    "bracket stuck at %.3g after %d iterations; "
                    "keeping the dual bound and stopping",
                    u,
                    iters,
                )
                break
            u_prev = u
            next_check = iters + cfg.drift_window
        f_bar = st.f_bar()
        try:
            alpha, halvings = line_search(p, st, vertex, kind, g_dot_d, d_sq, alpha_max)
        except LineSearchStall:
            log.warning("line search stalled; node keeps its last valid bound")
            break
        if diag is not None:
            diag.halvings.append(halvings)
        st.apply_step(vertex, kind, alpha)
        if cfg.self_check:
            _verify_step(p, st, f_bar, kind, g_dot_d, alpha, d_sq)
        if st.f_cur < f_best - 2.0**-50 * (1.0 + abs(f_best)):
            f_best = st.f_cur
            stalled = 0
        elif alpha < _STALL_ALPHA:
            stalled += 1
            if stalled >= _STALL_PATIENCE:
                log.debug(
                    "gap pinned at %.3g by float resolution after %d iterations; "
                    "keeping the dual bound and stopping",
                    gap_ts,
                    iters,
                )
                break
        else:
            stalled = 0
    return RelaxationResult(st.z.copy(), st.f_cur, dual, status, iters, state=st)
