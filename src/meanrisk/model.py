"""Problem data and node algebra for mixed-integer mean-risk knapsack problems.

An instance asks to maximize ``r'y - h(sqrt(y' M y))`` over the knapsack
``a'y <= b``, ``y >= 0`` with integrality on a subset of the variables, where
``M`` is a positive definite covariance matrix and ``h`` a convex risk
weighting. All solving happens in minimization form (risk minus return);
results are negated back on report.

The weighting enters everywhere only through phi(q) = h(sqrt(q)) of a
quadratic form q >= 0, its derivative dphi(q) and the slope h'(0) (see
``RiskWeighting``). dphi is finite at q = 0 for the quadratic and
thresholded weightings, so only the linear one leaves the objective
non-differentiable where q vanishes; there dphi reads +inf.

The solution contract is stated here once: ``solution_checks`` for what a
reported portfolio must satisfy, ``portfolio_summary`` for its report fields.

Fixing integer variables moves covariance coefficients into linear and
constant terms under the square root, and rescaling the free variables by
``b/a_i`` turns every node relaxation into the same shape of problem over the
capped unit simplex ``{z : sum(z) <= 1, z >= 0}``. This module owns that
algebra; the relaxation solver never needs to know about the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "InfeasibleFixing",
    "RiskWeighting",
    "LinearRisk",
    "QuadraticRisk",
    "ExpThresholdRisk",
    "RISK_KINDS",
    "risk_from_dict",
    "MeanRiskInstance",
    "FixedSubproblem",
    "SimplexProblem",
    "fix_variable",
    "simplex_transform",
    "eval_f",
    "grad_f",
    "objective_min",
    "objective_max",
    "solution_checks",
    "portfolio_summary",
]

_SYM_TOL = 1e-12
# how far an integer coordinate may sit from an integer and still count as one
_INT_TOL = 1e-9


class InfeasibleFixing(ValueError):
    """Requested integer fixing does not fit into the remaining budget."""


class RiskWeighting:
    """Convex, non-decreasing weight h on the risk magnitude t = sqrt(q).

    A frozen dataclass whose fields are its parameters, registered by kind
    in ``RISK_KINDS``. The solver sees h only through phi(q) = h(sqrt(q)) on
    the quadratic form q >= 0:

    - ``phi(q)`` is the float value h(sqrt q) of a float q;
    - ``dphi(q)`` is the float derivative h'(sqrt q) / (2 sqrt q), extended
      to q = 0 by its limit, and ``math.inf`` where that limit is infinite
      or the value overflows;
    - ``origin_slope`` is h'(0), which decides the origin optimality screen.
    """

    kind = "base"
    origin_slope = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be finite and nonnegative")

    def phi(self, q: float) -> float:
        raise NotImplementedError

    def dphi(self, q: float) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"kind": self.kind, **{k: v for k, v in values.items() if v is not None}}


@dataclass(frozen=True)
class LinearRisk(RiskWeighting):
    """h(t) = omega * t.

    Given a confidence level epsilon in (0, 1], omega = sqrt((1 - epsilon) /
    epsilon); a given omega must then equal that value. Larger epsilon means
    less weight on risk. The only weighting with h'(0) > 0, so the only one
    whose objective is not differentiable where q vanishes.
    """

    omega: float | None = None
    epsilon: float | None = None

    kind = "linear"
    # below this q the slope omega / (2 sqrt(q)) of phi reads as infinite
    _Q_FLOOR = 1e-300

    def __post_init__(self):
        if self.epsilon is not None:
            if not 0.0 < self.epsilon <= 1.0:
                raise ValueError("confidence level epsilon must lie in (0, 1]")
            omega = math.sqrt((1.0 - self.epsilon) / self.epsilon)
            if self.omega not in (None, omega):
                raise ValueError(f"omega {self.omega!r} disagrees with epsilon {self.epsilon!r}")
            object.__setattr__(self, "omega", omega)
        elif self.omega is None:
            raise ValueError("linear risk needs omega or epsilon")
        super().__post_init__()

    @property
    def origin_slope(self) -> float:
        return self.omega

    def phi(self, q: float) -> float:
        return self.omega * math.sqrt(q)

    def dphi(self, q: float) -> float:
        if q < self._Q_FLOOR:
            return math.inf
        return self.omega / (2.0 * math.sqrt(q))


@dataclass(frozen=True)
class QuadraticRisk(RiskWeighting):
    """h(t) = omega * t**2, so phi(q) = omega * q: smooth everywhere."""

    omega: float = 1.0

    kind = "quad"

    def phi(self, q: float) -> float:
        return self.omega * q

    def dphi(self, q: float) -> float:
        return self.omega


@dataclass(frozen=True)
class ExpThresholdRisk(RiskWeighting):
    """Zero up to a threshold, then exp(t - gamma) - (t - gamma + 1).

    Value and slope are both continuous at the threshold. For large t the
    value overflows float64 to +inf; downstream code treats that as an
    ordinary (terrible) objective value. At gamma = 0, dphi(0) is the limit
    h''(0) / 2 = 1/2 of expm1(t) / (2t).
    """

    gamma: float = 0.0

    kind = "exp"

    def phi(self, q: float) -> float:
        u = math.sqrt(q) - self.gamma
        if u <= 0.0:
            return 0.0
        try:
            return math.exp(u) - (u + 1.0)
        except OverflowError:
            return math.inf

    def dphi(self, q: float) -> float:
        t = math.sqrt(q)
        u = t - self.gamma
        if u <= 0.0:
            # h' vanishes up to the threshold; at gamma = 0 that leaves only
            # t = 0, where dphi takes its limit 1/2
            return 0.5 if self.gamma == 0.0 else 0.0
        try:
            return math.expm1(u) / (2.0 * t)
        except OverflowError:
            return math.inf


RISK_KINDS = {cls.kind: cls for cls in (LinearRisk, QuadraticRisk, ExpThresholdRisk)}


def risk_from_dict(spec: dict) -> RiskWeighting:
    """Rebuild a risk weighting from its ``to_dict`` form.

    Besides ``kind`` the keys must be fields of the weighting, at least one
    given, each a real number (a numpy scalar too, but no bool or string);
    fields not given keep their defaults.
    """
    if not isinstance(spec, dict):
        raise ValueError("risk spec must be a JSON object")
    kind = spec.get("kind")
    cls = RISK_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown risk kind: {kind!r}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(spec) - {"kind", *names})
    if unknown:
        raise ValueError(f"{kind} risk: unknown key {unknown[0]!r}")
    values = {}
    for name in names:
        if name in spec:
            value = spec[name]
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise ValueError(f"{kind} risk: {name!r} is not a number")
            values[name] = float(value)
    if not values:
        raise ValueError(f"{kind} risk: missing key {names[0]!r}")
    return cls(**values)


def _frozen(x) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class MeanRiskInstance:
    """Immutable, validated mean-risk knapsack data.

    The covariance is symmetrized (asymmetry beyond 1e-12 is rejected) and
    must admit a Cholesky factorization. ``integer_set`` holds 0-based indices
    of the integer-constrained variables.
    """

    r: np.ndarray
    a: np.ndarray
    b: float
    M: np.ndarray
    integer_set: tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        M = np.asarray(self.M, dtype=float)
        n = r.size
        if n < 1:
            raise ValueError("need at least one variable")
        if r.ndim != 1 or a.shape != (n,) or M.shape != (n, n):
            raise ValueError("shape mismatch between r, a and M")
        if not (np.isfinite(r).all() and np.isfinite(a).all() and np.isfinite(M).all()):
            raise ValueError("instance data must be finite")
        if not np.all(a > 0.0):
            raise ValueError("prices must be strictly positive")
        b = float(self.b)
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError("budget must be positive and finite")
        asym = float(np.max(np.abs(M - M.T)))
        if asym > _SYM_TOL:
            raise ValueError(f"covariance asymmetry {asym:.3e} exceeds {_SYM_TOL:g}")
        M = 0.5 * (M + M.T)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        iset = tuple(self.integer_set)
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in iset):
            raise ValueError("integer indices must be integers")
        iset = tuple(sorted({int(i) for i in iset}))
        if iset and (iset[0] < 0 or iset[-1] >= n):
            raise ValueError("integer indices out of range")
        object.__setattr__(self, "r", _frozen(r))
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "M", _frozen(M))
        object.__setattr__(self, "integer_set", iset)

    @property
    def n(self) -> int:
        return self.r.size


def objective_min(inst: MeanRiskInstance, y, h: RiskWeighting) -> float:
    """Minimization-form objective phi(y'My) - r'y at a full-length y."""
    y = np.asarray(y, dtype=float)
    return h.phi(max(float(y @ inst.M @ y), 0.0)) - float(inst.r @ y)


def objective_max(inst: MeanRiskInstance, y, h: RiskWeighting) -> float:
    """Reported maximization-form objective r'y - h(sqrt(y'My))."""
    return -objective_min(inst, y, h)


def solution_checks(inst: MeanRiskInstance, y) -> list[tuple[str, bool, str]]:
    """What a reported portfolio must satisfy, as ordered (label, ok, detail).

    A list of n numbers, finite entries, y >= -1e-12, a'y at most b with a
    relative and an absolute slack of 1e-9, and integer coordinates within
    1e-9 of an integer. Once the length or the finiteness check fails, each
    later check reads (False, "not checked") and is not evaluated.
    """
    skip = (False, "not checked")
    try:
        y = np.asarray(y, dtype=float)
        length = (y.shape == (inst.n,), f"got {y.shape}")
    except (TypeError, ValueError):
        length = (False, "not a list of numbers")
    finite = (bool(np.isfinite(y).all()), "") if length[0] else skip
    rest = [skip] * 3
    if finite[0]:
        low = float(y.min())
        spend = float(inst.a @ y)
        ints = y[list(inst.integer_set)]
        frac = float(np.abs(ints - np.round(ints)).max(initial=0.0))
        rest = [
            (low >= -1e-12, f"min {low:g}"),
            (spend <= inst.b * (1.0 + 1e-9) + 1e-9, f"spend {spend:g} vs budget {inst.b:g}"),
            (frac <= _INT_TOL, f"max deviation {frac:g}"),
        ]
    labels = (
        "solution length", "finite entries", "nonnegative entries", "budget respected", "integrality"
    )
    return [(label, *res) for label, res in zip(labels, [length, finite, *rest])]


def portfolio_summary(inst: MeanRiskInstance, y) -> dict:
    """Report fields of a full-length portfolio: return term r'y, the
    number of entries above 1e-9 in magnitude and the largest entry."""
    y = np.asarray(y, dtype=float)
    return {
        "return_term": float(inst.r @ y),
        "nnz": int(np.sum(np.abs(y) > 1e-9)),
        "max_entry": float(np.max(y)),
    }


@dataclass(frozen=True, eq=False)
class FixedSubproblem:
    """Node data after fixing a subset of the integer variables.

    Fixing variable j to value s moves covariance coefficients into the
    linear term ``c_s`` and constant ``d_s`` under the square root, and the
    return contribution into the offset ``t_s``. Free data stays in original
    units; ``free_index_map`` maps reduced positions to original indices.
    """

    M_s: np.ndarray
    c_s: np.ndarray
    d_s: float
    r_s: np.ndarray
    t_s: float
    a_s: np.ndarray
    b_s: float
    fixings: tuple[tuple[int, int], ...] = ()
    free_index_map: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "M_s", _frozen(self.M_s))
        object.__setattr__(self, "c_s", _frozen(self.c_s))
        object.__setattr__(self, "r_s", _frozen(self.r_s))
        object.__setattr__(self, "a_s", _frozen(self.a_s))
        # d_s is a quadratic form of the fixed coordinates; clamp float dust
        object.__setattr__(self, "d_s", max(float(self.d_s), 0.0))
        object.__setattr__(self, "b_s", float(self.b_s))

    @classmethod
    def root(cls, inst: MeanRiskInstance) -> "FixedSubproblem":
        n = inst.n
        return cls(
            M_s=inst.M,
            c_s=np.zeros(n),
            d_s=0.0,
            r_s=inst.r,
            t_s=0.0,
            a_s=inst.a,
            b_s=inst.b,
            fixings=(),
            free_index_map=tuple(range(n)),
        )

    @property
    def dim(self) -> int:
        return len(self.free_index_map)

    def assemble(self, x) -> np.ndarray:
        """Full original-units vector from the fixings plus a completion x."""
        y = np.zeros(len(self.fixings) + self.dim)
        for j, s in self.fixings:
            y[j] = float(s)
        if self.dim:
            y[list(self.free_index_map)] = np.asarray(x, dtype=float)
        return y


def fix_variable(sub: FixedSubproblem, j: int, s: int) -> FixedSubproblem:
    """Fix the free variable at reduced position j to the integer value s."""
    if not 0 <= j < sub.dim:
        raise IndexError(f"free position {j} out of range for dim {sub.dim}")
    s = int(s)
    if s < 0:
        raise InfeasibleFixing("fixing values must be nonnegative")
    cost = s * float(sub.a_s[j])
    if cost > sub.b_s * (1.0 + 1e-12) + 1e-12:
        orig = sub.free_index_map[j]
        raise InfeasibleFixing(
            f"fixing variable {orig} to {s} costs {cost:g} > remaining budget {sub.b_s:g}"
        )
    keep = np.arange(sub.dim) != j
    col = sub.M_s[keep, j]
    return FixedSubproblem(
        M_s=sub.M_s[np.ix_(keep, keep)],
        c_s=sub.c_s[keep] + (2.0 * s) * col,
        d_s=sub.d_s + s * s * float(sub.M_s[j, j]) + s * float(sub.c_s[j]),
        r_s=sub.r_s[keep],
        t_s=sub.t_s + s * float(sub.r_s[j]),
        a_s=sub.a_s[keep],
        b_s=max(sub.b_s - cost, 0.0),
        fixings=sub.fixings + ((sub.free_index_map[j], s),),
        free_index_map=tuple(v for i, v in enumerate(sub.free_index_map) if i != j),
    )


@dataclass(frozen=True, eq=False)
class SimplexProblem:
    """Node relaxation over the capped unit simplex {z : sum(z) <= 1, z >= 0}.

    Objective: f(z) = phi(z'Qz + c'z + d) - mu'z - t_off. ``scale`` maps
    simplex coordinates back to original units, y_free = scale * z.
    """

    Q: np.ndarray
    c: np.ndarray
    d: float
    mu: np.ndarray
    t_off: float
    scale: np.ndarray
    h: RiskWeighting

    def __post_init__(self):
        object.__setattr__(self, "Q", _frozen(self.Q))
        object.__setattr__(self, "c", _frozen(self.c))
        object.__setattr__(self, "mu", _frozen(self.mu))
        object.__setattr__(self, "scale", _frozen(self.scale))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "t_off", float(self.t_off))
        n = self.mu.size
        if self.Q.shape != (n, n) or self.c.shape != (n,) or self.scale.shape != (n,):
            raise ValueError("shape mismatch in simplex problem data")
        if self.d < 0.0:
            raise ValueError("constant term under the square root must be nonnegative")

    @property
    def dim(self) -> int:
        return self.mu.size

    def vertex_values(self) -> np.ndarray:
        """Objective value at each unit vertex e_i."""
        q = np.maximum(np.diag(self.Q) + self.c + self.d, 0.0)
        return np.array([self.h.phi(float(v)) for v in q]) - self.mu - self.t_off


def _unit(dim: int, i: int) -> np.ndarray:
    """Unit vertex e_i of the capped simplex in ``dim`` coordinates."""
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def simplex_transform(sub: FixedSubproblem, h: RiskWeighting) -> SimplexProblem:
    """Rescale a node's free variables onto the capped unit simplex.

    Needs at least one free variable and a positive remaining budget; a node
    without either is a fully determined point and has no relaxation.
    """
    if sub.dim == 0 or sub.b_s <= 0.0:
        raise ValueError("node has no free variable or no remaining budget")
    scale = sub.b_s / sub.a_s
    return SimplexProblem(
        Q=sub.M_s * np.outer(scale, scale),
        c=scale * sub.c_s,
        d=sub.d_s,
        mu=scale * sub.r_s,
        t_off=sub.t_s,
        scale=scale,
        h=h,
    )


def eval_f(p: SimplexProblem, z) -> float:
    """f(z) = phi(z'Qz + c'z + d) - mu'z - t_off, defined for all z."""
    z = np.asarray(z, dtype=float)
    q = max(float(z @ p.Q @ z + p.c @ z) + p.d, 0.0)
    return p.h.phi(q) - float(p.mu @ z) - p.t_off


def _risk_gradient(h: RiskWeighting, q: float, dq, mu) -> np.ndarray:
    """dphi(q) dq - mu, all nan where dphi(q) is infinite (no inf * 0)."""
    slope = h.dphi(q)
    if slope == math.inf:
        return np.full(len(mu), math.nan)
    return slope * dq - mu


@np.errstate(over="ignore", invalid="ignore")
def grad_f(p: SimplexProblem, z) -> np.ndarray:
    """Gradient dphi(q) (2Qz + c) - mu of f.

    All nan where the weighting's slope is infinite: the linear weighting
    where the root term vanishes, as at z = 0 on a d = 0 node; there
    ``fw.solve_relaxation`` decides by the origin optimality check instead.
    A finite slope times dq may overflow to inf, without a numpy warning.
    """
    z = np.asarray(z, dtype=float)
    q = max(float(z @ p.Q @ z + p.c @ z) + p.d, 0.0)
    return _risk_gradient(p.h, q, 2.0 * (p.Q @ z) + p.c, p.mu)
