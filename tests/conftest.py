"""Shared builders for the test suite.

Problem families here are constructed so that the properties under test are
decisively true or false: interior optima come with their closed form,
vertex/origin-dominant problems have one term that dwarfs the rest, and the
small-domain knapsack instances keep every integer domain inside {0, 1, 2} so
the brute-force oracle stays cheap.
"""

import dataclasses

import numpy as np

from meanrisk.instances import generate_instance
from meanrisk.model import (
    ExpThresholdRisk,
    LinearRisk,
    QuadraticRisk,
    SimplexProblem,
    eval_f,
)

CRITERION_RISKS = (
    LinearRisk(epsilon=0.95),
    QuadraticRisk(1.0),
    ExpThresholdRisk(1.0),
)


def small_domain_instance(seed):
    """Seeded knapsack with n in {3..6}, alternating integer-set size, and a
    budget of twice the cheapest price, which caps every domain at {0, 1, 2}."""
    n = 3 + seed % 4
    frac = 0.5 if seed % 2 == 0 else 1.0
    base = generate_instance(n=n, integer_fraction=frac, seed=seed)
    return dataclasses.replace(base, b=2.0 * float(np.min(base.a)))


def random_spd(rng, dim, scale):
    a = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    return scale * (a @ a.T + np.eye(dim))


def interior_quad_problem(seed, dim=5, scale=1e-3):
    """Quadratic-weighting problem whose minimizer sits strictly inside the
    simplex, with the minimizer returned alongside.

    mu is reverse-engineered from a target point via the stationarity
    condition of f(z) = z'Qz + c'z + d - mu'z, so the closed form is exact.
    The scale keeps curvature times |f| small enough that float64 can
    certify a 1e-10 gap (the achievable gap floor grows like
    sqrt(ulp(|f|) * curvature)).
    """
    rng = np.random.default_rng(seed)
    q = random_spd(rng, dim, scale)
    z_target = rng.uniform(0.05, 0.12, dim)
    c = scale * 0.1 * np.abs(rng.standard_normal(dim))
    mu = 2.0 * q @ z_target + c
    d = scale * rng.uniform(0.1, 0.5)
    p = SimplexProblem(
        Q=q, c=c, d=d, mu=mu, t_off=0.0, scale=np.ones(dim), h=QuadraticRisk(1.0)
    )
    return p, z_target


def vertex_dominant_problem(seed, dim, h):
    """One coordinate's return dwarfs every risk term; optimum hugs a vertex."""
    rng = np.random.default_rng(seed)
    q = random_spd(rng, dim, 1e-3)
    c = 1e-3 * 0.1 * np.abs(rng.standard_normal(dim))
    d = 1e-3 * rng.uniform(0.1, 0.5)
    mu = -np.abs(rng.standard_normal(dim)) - 0.5
    mu[int(rng.integers(dim))] = 5.0
    return SimplexProblem(Q=q, c=c, d=d, mu=mu, t_off=0.0, scale=np.ones(dim), h=h)


def origin_dominant_problem(seed, dim, h):
    """All returns negative; staying at the origin is optimal."""
    rng = np.random.default_rng(seed)
    q = random_spd(rng, dim, 1e-3)
    c = 1e-3 * 0.1 * np.abs(rng.standard_normal(dim))
    d = 1e-3 * rng.uniform(0.1, 0.5)
    mu = -np.abs(rng.standard_normal(dim)) - 0.1
    return SimplexProblem(Q=q, c=c, d=d, mu=mu, t_off=0.0, scale=np.ones(dim), h=h)


def certification_cases():
    """The 50 relaxation problems behind the continuous-solver criteria.

    Returns (label, problem, closed_form_or_None) triples: 18 interior
    quadratic problems at dim 5 plus 16 vertex-dominant and 16
    origin-dominant problems split over dims 20 and 50 and the three risk
    weightings.
    """
    cases = []
    for i in range(18):
        p, z_t = interior_quad_problem(i)
        cases.append(("interior", p, z_t))
    for i in range(16):
        dim = 20 if i % 2 == 0 else 50
        h = CRITERION_RISKS[i % 3]
        cases.append(("vertex", vertex_dominant_problem(100 + i, dim, h), None))
    for i in range(16):
        dim = 20 if i % 2 == 0 else 50
        h = CRITERION_RISKS[i % 3]
        cases.append(("origin", origin_dominant_problem(200 + i, dim, h), None))
    assert len(cases) == 50
    return cases


_SUPPORT_MASKS = {}


def _support_masks(dim):
    if dim not in _SUPPORT_MASKS:
        bits = np.arange(2**dim)[:, None] >> np.arange(dim) & 1
        _SUPPORT_MASKS[dim] = bits.astype(bool)
    return _SUPPORT_MASKS[dim]


def projection_oracle(v):
    """Projection onto {z : sum(z) <= 1, z >= 0} by active-set enumeration.

    For every support set the KKT point is either the restriction of v (cap
    slack) or v shifted by the multiplier that makes the support sum to one
    (cap tight). The best feasible candidate over all enumerations is the
    projection. Exponential in dim; test use only.
    """
    v = np.asarray(v, dtype=float)
    dim = v.size
    masks = _support_masks(dim)
    sizes = masks.sum(axis=1)
    nonempty = sizes > 0
    slack = np.where(masks, v, 0.0)
    theta = (slack.sum(axis=1) - 1.0) / np.where(nonempty, sizes, 1)
    tight = np.where(masks, v - theta[:, None], 0.0)
    candidates = np.vstack([slack, tight[nonempty]])
    feasible = (candidates >= -1e-12).all(axis=1) & (candidates.sum(axis=1) <= 1.0 + 1e-12)
    candidates = np.clip(candidates[feasible], 0.0, None)
    dists = ((candidates - v) ** 2).sum(axis=1)
    return candidates[int(np.argmin(dists))]


def origin_grid_verdict(p, steps=200):
    """Is the origin a minimizer of f over the simplex, judged on a dense grid?

    Evaluates f on all grid points (i, j, k)/steps with i + j + k <= steps of a
    3-dimensional problem with a linear weighting, phi(q) = omega sqrt(q),
    and compares the grid minimum against f(0).
    """
    assert p.dim == 3 and isinstance(p.h, LinearRisk)
    idx = np.arange(steps + 1)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    keep = (i + j) <= steps
    i, j = i[keep], j[keep]
    pts = []
    for k in idx:
        ok = i + j <= steps - k
        block = np.empty((int(ok.sum()), 3))
        block[:, 0] = i[ok]
        block[:, 1] = j[ok]
        block[:, 2] = k
        pts.append(block)
    z = np.vstack(pts) / steps
    q = np.maximum(np.einsum("ij,jk,ik->i", z, p.Q, z) + z @ p.c + p.d, 0.0)
    f = p.h.omega * np.sqrt(q) - z @ p.mu - p.t_off
    return eval_f(p, np.zeros(3)) <= float(f.min()) + 1e-12
