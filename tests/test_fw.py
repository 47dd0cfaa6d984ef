"""Conditional-gradient solver: directions, line search, caches, full solves."""

import logging
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from conftest import interior_quad_problem, origin_grid_verdict, random_spd
from meanrisk import fw
from meanrisk.fw import (
    ALPHA_CAP,
    BETA,
    DELTA,
    GAMMA1,
    GAMMA2,
    MAX_HALVINGS,
    IterateState,
    LineSearchStall,
    RelaxationDiagnostics,
    RelaxationResult,
    RelaxationStatus,
    StepKind,
    _origin_nnls,
    line_search,
    origin_optimality_check,
    select_direction,
    solve_relaxation,
)
from meanrisk.instances import generate_instance
from meanrisk.model import (
    ExpThresholdRisk,
    FixedSubproblem,
    LinearRisk,
    QuadraticRisk,
    SimplexProblem,
    eval_f,
    grad_f,
    simplex_transform,
)
from meanrisk.projection import project_capped_simplex


def _problem(Q, mu, h, c=None, d=0.0):
    Q = np.asarray(Q, dtype=float)
    dim = Q.shape[0]
    c = np.zeros(dim) if c is None else np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return SimplexProblem(Q=Q, c=c, d=d, mu=mu, t_off=0.0, scale=np.ones(dim), h=h)


def _random_problem(rng, dim, h, d_low=0.5):
    # d bounded away from zero keeps the objective smooth on the whole simplex
    return SimplexProblem(
        Q=random_spd(rng, dim, 1.0),
        c=0.1 * np.abs(rng.standard_normal(dim)),
        d=rng.uniform(d_low, d_low + 0.5),
        mu=rng.standard_normal(dim),
        t_off=0.0,
        scale=np.ones(dim),
        h=h,
    )


def _random_point(rng, dim):
    z = rng.random(dim)
    z *= rng.uniform(0.1, 0.95) / z.sum()
    z[rng.random(dim) < 0.3] = 0.0
    return z


_RISKS = (LinearRisk(1.0), QuadraticRisk(1.0), ExpThresholdRisk(1.0))


# ---------------------------------------------------------------- config


def test_config_defaults():
    assert (DELTA, GAMMA1, GAMMA2, BETA) == (0.5, 1e-4, 1e-6, 1e-6)
    assert (fw._MAX_ITER, fw._DRIFT_WINDOW, fw._DRIFT_MIN_SHRINK) == (50_000, 200, 0.15)
    # the non-monotone test remembers one value besides the current one
    p = _problem(np.eye(2), [0.0, 0.0], QuadraticRisk(1.0), d=1.0)
    assert IterateState(p, [0.1, 0.1]).f_hist.maxlen == 2
    assert IterateState(p, [0.1, 0.1], monotone=True).f_hist.maxlen == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gap_tol": 0.0},
        {"gap_tol": -1.0},
        {"gap_tol": math.nan},
        {"gap_tol": math.inf},
    ],
)
def test_config_validation(kwargs):
    p = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0))
    with pytest.raises(ValueError, match="gap_tol must be positive and finite"):
        solve_relaxation(p, [1.0 / 3.0, 1.0 / 3.0], **kwargs)


def test_state_rejects_wrong_dimension():
    p = _problem(np.eye(2), [0.0, 0.0], QuadraticRisk(1.0), d=1.0)
    with pytest.raises(ValueError):
        IterateState(p, [0.1, 0.1, 0.1])


# ------------------------------------------------------------ directions


def _step_vector(z, kind, vertex):
    """d = v - z for a toward step, d = z - v for an away step."""
    v = np.zeros_like(z)
    if vertex is not None:
        v[vertex] = 1.0
    return v - z if kind is StepKind.TOWARD else z - v


def _reference_direction(z, g, beta):
    """Toward/away selection spelled out on the explicit d vectors.

    Toward candidates: the origin (score 0) and every unit vertex (score
    g_i), ties to the origin, then the lowest index. Away candidates: the
    origin when z != 0 and every support vertex with g_i >= 0, ties to the
    lowest index, the origin last.
    """
    i = int(np.argmin(g))
    v_ts = i if g[i] < 0.0 else None
    d_ts = _step_vector(z, StepKind.TOWARD, v_ts)
    gap_ts = float(g @ d_ts)
    support = z > 0.0
    v_as = None
    if support.any():
        i = int(np.argmax(np.where(support, g, -np.inf)))
        if g[i] >= 0.0:
            v_as = i
    sum_z = float(z.sum())
    if v_as is None:
        alpha_as = (1.0 - sum_z) / sum_z if sum_z > 0.0 else ALPHA_CAP
    else:
        alpha_as = z[v_as] / (1.0 - z[v_as]) if z[v_as] < 1.0 else ALPHA_CAP
    alpha_as = min(alpha_as, ALPHA_CAP)
    d_as = _step_vector(z, StepKind.AWAY, v_as)
    if float(g @ d_as) <= gap_ts and alpha_as > beta:
        return StepKind.AWAY, v_as, d_as, alpha_as, gap_ts
    return StepKind.TOWARD, v_ts, d_ts, 1.0, gap_ts


def _toward_only(st, g):
    # an infinite beta blocks every away step, exposing the toward choice
    return select_direction(st, g, math.inf)


def test_toward_step_picks_most_negative_gradient_vertex():
    p = _problem(np.eye(3), np.zeros(3), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.1, 0.2, 0.3])
    g = np.array([1.0, -2.0, 3.0])
    kind, vertex, g_dot_d, alpha_max, gap, d_sq = _toward_only(st, g)
    assert kind is StepKind.TOWARD
    assert vertex == 1
    assert alpha_max == 1.0
    e1 = np.array([0.0, 1.0, 0.0])
    assert d_sq == pytest.approx(float((e1 - st.z) @ (e1 - st.z)), rel=1e-15)
    assert gap == pytest.approx(-2.0 - float(g @ st.z), abs=1e-15)
    assert g_dot_d == gap
    # the away candidate (vertex 2) linearizes worse, so beta changes nothing
    assert select_direction(st, g, BETA)[:2] == (StepKind.TOWARD, 1)


def test_toward_step_returns_origin_when_gradient_nonnegative():
    p = _problem(np.eye(2), np.zeros(2), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.3, 0.4])
    g = np.array([1.0, 2.0])
    kind, vertex, _, _, gap, d_sq = _toward_only(st, g)
    assert kind is StepKind.TOWARD
    assert vertex is None
    assert d_sq == pytest.approx(float(st.z @ st.z), rel=1e-15)
    assert gap == pytest.approx(-float(g @ st.z), abs=1e-15)
    # a zero gradient entry ties with the origin; the origin wins
    _, vertex, _, _, _, _ = _toward_only(st, np.array([0.0, 3.0]))
    assert vertex is None


def test_away_step_cap_for_unit_vertex():
    p = _problem(np.eye(3), np.zeros(3), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.3, 0.2, 0.0])
    g = np.array([5.0, 1.0, 0.0])
    kind, vertex, g_dot_d, alpha_max, _, d_sq = select_direction(st, g, BETA)
    assert kind is StepKind.AWAY
    assert vertex == 0
    assert alpha_max == pytest.approx(0.3 / 0.7, rel=1e-15)
    d = st.z - np.array([1.0, 0.0, 0.0])
    assert d_sq == pytest.approx(float(d @ d), rel=1e-15)
    assert g_dot_d == pytest.approx(float(g @ st.z) - 5.0, abs=1e-15)


def test_away_step_cap_for_origin():
    p = _problem(np.eye(2), np.zeros(2), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.25, 0.25])
    # gradient negative on the whole support, so the origin is the away
    # vertex; equal entries make the away step tie the toward step
    g = np.array([-1.0, -1.0])
    kind, vertex, g_dot_d, alpha_max, _, d_sq = select_direction(st, g, BETA)
    assert kind is StepKind.AWAY
    assert vertex is None
    assert alpha_max == pytest.approx(1.0, rel=1e-15)
    assert d_sq == float(st.z @ st.z)
    assert g_dot_d == float(g @ st.z)


def test_away_step_cap_saturates_at_sentinel():
    p = _problem(np.eye(2), np.zeros(2), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [1.0, 0.0])
    # a zero slope on the full vertex ties the away step with the toward step
    kind, vertex, _, alpha_max, _, _ = select_direction(st, np.array([0.0, 1.0]), BETA)
    assert kind is StepKind.AWAY
    assert vertex == 0
    assert alpha_max == ALPHA_CAP


def test_away_step_ignores_zero_coordinates():
    p = _problem(np.eye(3), np.zeros(3), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.5, 0.3, 0.0])
    rng = np.random.default_rng(7)
    aways = 0
    for _ in range(1000):
        kind, vertex, _, _, _, _ = select_direction(st, rng.standard_normal(3), 0.0)
        if kind is StepKind.AWAY:
            aways += 1
            assert vertex != 2
    assert aways > 0


def test_choose_direction_prefers_better_linearized_away():
    p = _problem(np.eye(3), np.zeros(3), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.2, 0.3, 0.0])
    g = np.array([-1.0, 5.0, -1.2])
    kind, vertex, g_dot_d, alpha_max, gap_ts, d_sq = select_direction(st, g, BETA)
    assert kind is StepKind.AWAY
    assert vertex == 1
    assert g_dot_d == pytest.approx(-3.7, rel=1e-15)
    assert alpha_max == pytest.approx(0.3 / 0.7, rel=1e-15)
    assert gap_ts == pytest.approx(-2.5, rel=1e-15)
    d = st.z - np.array([0.0, 1.0, 0.0])
    assert d_sq == pytest.approx(float(d @ d), rel=1e-15)


def test_choose_direction_keeps_toward_when_away_is_worse():
    p = _problem(np.eye(3), np.zeros(3), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.2, 0.3, 0.0])
    g = np.array([-1.0, 2.0, -5.0])
    kind, vertex, g_dot_d, alpha_max, gap_ts, _ = select_direction(st, g, BETA)
    assert kind is StepKind.TOWARD
    assert vertex == 2
    assert alpha_max == 1.0
    assert g_dot_d == pytest.approx(-5.4, rel=1e-15)
    assert g_dot_d == pytest.approx(gap_ts, abs=0)


def test_choose_direction_blocks_tiny_away_caps():
    p = _problem(np.eye(3), np.zeros(3), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.2, 1e-9, 0.0])
    # the away step linearizes better but its cap 1e-9/(1-1e-9) is below beta
    kind, vertex, _, _, _, _ = select_direction(st, np.array([-1.0, 5.0, 0.0]), BETA)
    assert kind is StepKind.TOWARD
    assert vertex == 0


def test_fast_direction_matches_reference():
    rng = np.random.default_rng(41)
    for trial in range(500):
        dim = int(rng.integers(2, 13))
        p = _random_problem(rng, dim, _RISKS[trial % 3])
        z = _random_point(rng, dim)
        if trial % 25 == 0:
            z = np.zeros(dim)
        st = IterateState(p, z)
        g = rng.standard_normal(dim)
        if trial % 7 == 0:
            g = np.abs(g)
        ref_kind, ref_vertex, ref_d, ref_alpha, ref_gap = _reference_direction(st.z, g, BETA)
        kind, vertex, g_dot_d, alpha_max, gap_ts, d_sq = select_direction(st, g, BETA)
        assert kind is ref_kind
        assert vertex == ref_vertex
        assert g_dot_d == pytest.approx(float(g @ ref_d), rel=1e-12, abs=1e-12)
        assert alpha_max == pytest.approx(ref_alpha, rel=1e-12)
        assert gap_ts == pytest.approx(ref_gap, rel=1e-12, abs=1e-12)
        assert d_sq == pytest.approx(float(ref_d @ ref_d), rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ line search


def test_line_search_accepts_unit_step_on_easy_descent():
    # 1-d: f(alpha) = alpha^2 - 2 alpha, full step passes on the first try
    p = _problem([[1.0]], [2.0], QuadraticRisk(1.0))
    st = IterateState(p, [0.0])
    alpha, halvings = line_search(
        p, st, 0, StepKind.TOWARD, g_dot_d=-2.0, d_sq=1.0, alpha_max=1.0
    )
    assert alpha == 1.0
    assert halvings == 0


def test_line_search_nonmonotone_accepts_what_monotone_rejects():
    # Regression with hand-checked arithmetic. From z = (0.48, 0.48), reached
    # by a small step toward the origin from (0.5, 0.5), the toward step to
    # vertex 0 needs f to rise above f(z) before it pays off: the memory-1
    # threshold max(f(0.48..), f(0.5..)) = 5 admits alpha = 0.25, while the
    # monotone threshold f(z) = 4.6096 forces alpha down to 0.0625.
    def prepared_state(monotone):
        p = _problem(np.diag([12.0, 12.0]), [3.0, 1.0], QuadraticRisk(1.0), d=1.0)
        st = IterateState(p, [0.5, 0.5], monotone=monotone)
        st.apply_step(None, StepKind.TOWARD, 0.04)
        return p, st

    p, st = prepared_state(monotone=False)
    assert st.f_bar() == pytest.approx(5.0, abs=1e-12)
    assert st.f_cur == pytest.approx(4.6096, abs=1e-12)
    g = st.gradient()
    d = np.array([1.0, 0.0]) - st.z
    g_dot_d = float(g @ d)
    d_sq = float(d @ d)
    assert g_dot_d == pytest.approx(-0.6192, abs=1e-12)
    alpha, halvings = line_search(p, st, 0, StepKind.TOWARD, g_dot_d, d_sq, alpha_max=1.0)
    assert alpha == 0.25
    assert halvings == 2
    # the accepted trial climbs above the current f but stays under the memory
    assert st.trial_objective(0, alpha) > st.f_cur
    assert st.trial_objective(0, alpha) <= st.f_bar()

    p, st = prepared_state(monotone=True)
    assert st.f_bar() == pytest.approx(4.6096, abs=1e-12)
    alpha, halvings = line_search(p, st, 0, StepKind.TOWARD, g_dot_d, d_sq, alpha_max=1.0)
    assert alpha == 0.0625
    assert halvings == 4


def test_line_search_accepted_steps_hold_on_reevaluation():
    rng = np.random.default_rng(13)
    for trial in range(200):
        dim = int(rng.integers(2, 11))
        p = _random_problem(rng, dim, _RISKS[trial % 3])
        st = IterateState(p, _random_point(rng, dim), monotone=trial % 2 == 0)
        g = st.gradient()
        kind, vertex, g_dot_d, alpha_max, _, _ = select_direction(st, g, BETA)
        if g_dot_d >= 0.0:
            continue
        f_bar = st.f_bar()
        d = _step_vector(st.z, kind, vertex)
        assert g_dot_d == pytest.approx(float(g @ d), rel=1e-12, abs=1e-12)
        d_sq = float(d @ d)
        alpha, halvings = line_search(p, st, vertex, kind, g_dot_d, d_sq, alpha_max)
        assert 0.0 < alpha <= alpha_max
        assert halvings >= 0
        f_scratch = eval_f(p, st.z + alpha * d)
        rhs = f_bar + GAMMA1 * alpha * g_dot_d - GAMMA2 * alpha * alpha * d_sq
        assert f_scratch <= rhs + 1e-9 * (1.0 + abs(f_bar))


def test_line_search_stall_raises():
    # a wildly wrong slope estimate makes the acceptance threshold
    # unreachable at every stepsize; the halving budget must trip
    p = _problem(np.eye(2), np.zeros(2), QuadraticRisk(1.0), d=1.0)
    st = IterateState(p, [0.5, 0.25])
    with pytest.raises(LineSearchStall):
        line_search(p, st, 0, StepKind.TOWARD, g_dot_d=-1e308, d_sq=1.0, alpha_max=1.0)


def _scan_line_search(st, vertex, kind, g_dot_d, d_sq, alpha_max):
    """The Armijo rule spelled out: try j = 0, 1, ... with scalar trials."""
    f_bar = st.f_bar()
    sign = 1.0 if kind is StepKind.TOWARD else -1.0
    alpha = alpha_max
    for j in range(MAX_HALVINGS + 1):
        rhs = f_bar + GAMMA1 * alpha * g_dot_d - GAMMA2 * alpha * alpha * d_sq
        if st.trial_objective(vertex, sign * alpha) <= rhs:
            return alpha, j
        alpha *= DELTA
    raise LineSearchStall


def test_line_search_finds_the_step_the_scan_finds():
    # the predicted index, once confirmed, must be the scan's first passing
    # index on every weighting, both step kinds and both memory lengths
    rng = np.random.default_rng(29)
    compared = {StepKind.TOWARD: 0, StepKind.AWAY: 0}
    for trial in range(1000):
        dim = int(rng.integers(2, 13))
        p = _random_problem(rng, dim, _RISKS[trial % 3])
        st = IterateState(p, _random_point(rng, dim), monotone=(trial // 3) % 2 == 0)
        # one accepted step first, so that the memory holds a value above f
        kind, vertex, g_dot_d, alpha_max, _, d_sq = select_direction(st, st.gradient(), BETA)
        if g_dot_d < 0.0:
            alpha, _ = _scan_line_search(st, vertex, kind, g_dot_d, d_sq, alpha_max)
            st.apply_step(vertex, kind, alpha)
        g = st.gradient()
        for beta in (BETA, math.inf):
            kind, vertex, g_dot_d, alpha_max, _, d_sq = select_direction(st, g, beta)
            if g_dot_d >= 0.0:
                continue
            expected = _scan_line_search(st, vertex, kind, g_dot_d, d_sq, alpha_max)
            assert line_search(p, st, vertex, kind, g_dot_d, d_sq, alpha_max) == expected
            compared[kind] += 1
    assert compared[StepKind.TOWARD] >= 1000
    assert compared[StepKind.AWAY] >= 100


def test_line_search_needs_about_two_trials_on_a_tight_root(monkeypatch):
    # quad root of a small-budget instance, the shape of the benchmark's
    # tight workload; a scan from j = 0 makes 9+ trials per search here
    inst = generate_instance(40, 0.25, 0.02, seed=7)
    p = simplex_transform(FixedSubproblem.root(inst), QuadraticRisk(1.0))
    trials = 0
    trial_objective = IterateState.trial_objective

    def counted(self, vertex, tau):
        nonlocal trials
        trials += 1
        return trial_objective(self, vertex, tau)

    monkeypatch.setattr(IterateState, "trial_objective", counted)
    monkeypatch.setattr(fw, "_MAX_ITER", 3000)
    e1 = np.zeros(p.dim)
    e1[0] = 1.0
    diag = RelaxationDiagnostics()
    # an unreachable threshold arms the drift exit, as inside bnb
    solve_relaxation(p, e1, prune_threshold=math.inf, diag=diag)
    searches = len(diag.halvings)
    assert searches > 100
    assert trials <= 2.1 * searches
    # a scan from j = 0 would have tried j + 1 stepsizes per search
    assert searches + sum(diag.halvings) >= 4 * trials


# ------------------------------------------------------------ step updates


def test_apply_step_origin_scaling_identities():
    rng = np.random.default_rng(5)
    p = _random_problem(rng, 5, QuadraticRisk(1.0))
    st = IterateState(p, _random_point(rng, 5))
    zQz, cz, muz, sum_z = st.zQz, st.cz, st.muz, st.sum_z
    alpha = 0.3
    st.apply_step(None, StepKind.TOWARD, alpha)
    w = 1.0 - alpha
    assert st.zQz == pytest.approx(w * w * zQz, rel=1e-15)
    assert st.cz == pytest.approx(w * cz, rel=1e-15)
    assert st.muz == pytest.approx(w * muz, rel=1e-15)
    assert st.sum_z == pytest.approx(w * sum_z, rel=1e-15)


def test_apply_step_full_step_lands_exactly_on_vertex():
    rng = np.random.default_rng(6)
    p = _random_problem(rng, 4, LinearRisk(1.0))
    st = IterateState(p, _random_point(rng, 4))
    st.apply_step(2, StepKind.TOWARD, 1.0)
    e = np.array([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(st.z, e)
    assert st.zQz == float(p.Q[2, 2])
    assert st.sum_z == 1.0
    np.testing.assert_array_equal(st.Qz, p.Q[2])


def test_apply_step_cache_drift_after_500_random_steps():
    rng = np.random.default_rng(21)
    p = _random_problem(rng, 30, QuadraticRisk(1.0))
    st = IterateState(p, np.full(30, 1.0 / 60.0))
    for _ in range(500):
        if rng.random() < 0.55:
            vertex = None if rng.random() < 0.15 else int(rng.integers(30))
            st.apply_step(vertex, StepKind.TOWARD, float(rng.uniform(0.0, 1.0)))
        else:
            support = np.flatnonzero(st.z > 1e-12)
            if rng.random() < 0.3 or support.size == 0:
                if st.sum_z <= 1e-12 or st.sum_z >= 1.0:
                    continue
                vertex, cap = None, (1.0 - st.sum_z) / st.sum_z
            else:
                vertex = int(rng.choice(support))
                zi = float(st.z[vertex])
                if zi >= 1.0:
                    continue
                cap = zi / (1.0 - zi)
            st.apply_step(vertex, StepKind.AWAY, 0.98 * cap * float(rng.random()))
    assert max(st.cache_errors().values()) <= 1e-9
    assert np.all(st.z >= 0.0)
    assert float(st.z.sum()) <= 1.0 + 1e-12


# ------------------------------------------------------------ origin check


def test_origin_check_one_dim_closed_forms():
    # min over y >= 0 of (y + 1)^2 / 1 is 1 at y = 0
    p = _problem([[1.0]], [1.0], LinearRisk(2.0))
    res = origin_optimality_check(p)
    assert res.origin_optimal
    assert res.inner_value == pytest.approx(1.0, abs=1e-9)

    p = _problem([[1.0]], [1.0], LinearRisk(0.5))
    res = origin_optimality_check(p)
    assert not res.origin_optimal
    assert res.inner_value == pytest.approx(1.0, abs=1e-9)
    cert = res.certificate
    assert cert is not None and np.all(cert >= 0.0) and cert.max() > 0.0
    # the certificate really is a descent direction out of the origin
    eps = 1e-6
    assert eval_f(p, eps * cert) < eval_f(p, np.zeros(1))


def test_origin_check_zero_slope_shortcut():
    # weightings with zero slope at the root: any positive return entry
    # disqualifies the origin with no inner solve at all
    for h in (QuadraticRisk(1.0), ExpThresholdRisk(1.0), ExpThresholdRisk(0.0)):
        res = origin_optimality_check(_problem(np.eye(2), [1e-8, -1.0], h))
        assert not res.origin_optimal
        assert res.inner_value is None
        np.testing.assert_array_equal(res.certificate, [1.0, 0.0])
        res = origin_optimality_check(_problem(np.eye(2), [-1.0, -2.0], h))
        assert res.origin_optimal
        assert res.inner_value is None


def test_origin_check_requires_vanishing_root_term():
    with pytest.raises(ValueError):
        origin_optimality_check(_problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0), d=0.5))
    with pytest.raises(ValueError):
        origin_optimality_check(
            _problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0), c=[0.1, 0.0])
        )


def test_origin_check_agrees_with_dense_grid():
    rng = np.random.default_rng(23)
    for omega in (5.0, 1.0, 0.05):
        p = _problem(
            random_spd(rng, 3, 1.0), rng.uniform(0.5, 1.5, 3), LinearRisk(omega)
        )
        assert origin_optimality_check(p).origin_optimal == origin_grid_verdict(p)


def _spd_with_condition(rng, dim, cond):
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (u * np.logspace(0.0, -math.log10(cond), dim)) @ u.T


@pytest.mark.parametrize("dim", [30, 100])
def test_origin_nnls_point_satisfies_kkt(dim):
    rng = np.random.default_rng(dim)
    for cond in (1e1, 1e3, 1e6):
        Q = _spd_with_condition(rng, dim, cond)
        mu = rng.standard_normal(dim)
        y, value, g = _origin_nnls(Q, mu)
        scale = float(np.max(np.abs(g)))
        tol = 1e-11 * max(scale, 1.0)
        assert np.all(y >= 0.0)
        assert np.all(g >= -tol)
        assert abs(float(y @ g)) <= tol * max(1.0, float(np.max(y)))
        # independent reference: bounded-variable least squares on L^{-1}
        l_inv = np.linalg.inv(np.linalg.cholesky(Q))
        ref = lsq_linear(l_inv, -(l_inv @ mu), bounds=(0.0, np.inf), method="bvls", tol=1e-14)
        r = l_inv @ (ref.x + mu)
        assert value == pytest.approx(float(r @ r), rel=1e-9)


def test_origin_check_exact_on_ill_conditioned_root():
    # cond(Q) ~ 1.1e6 at the root: the exact inner value is 0.0778501, above
    # the threshold h'(0)^2 = 1/19
    inst = generate_instance(100, seed=7, budget_multiplier=0.02)
    p = simplex_transform(FixedSubproblem.root(inst), LinearRisk(epsilon=0.95))
    res = origin_optimality_check(p)
    assert not res.origin_optimal
    assert res.converged
    assert res.inner_value < 0.077851
    ray = res.certificate / res.certificate.sum()
    assert eval_f(p, ray) < eval_f(p, np.zeros(p.dim))


# ------------------------------------------------------------- full solves


def test_solve_relaxation_finds_interior_optimum():
    # unconstrained optimum mu/2 = (0.5, 0.25) lies inside the simplex
    p = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0))
    diag = RelaxationDiagnostics()
    res = solve_relaxation(p, [1.0 / 3.0, 1.0 / 3.0], diag=diag)
    assert res.status is RelaxationStatus.OPTIMAL
    np.testing.assert_allclose(res.z_star, [0.5, 0.25], atol=1e-6)
    assert res.f_star == pytest.approx(-0.3125, abs=1e-9)
    # the toward gap closes at an interior optimum
    assert diag.gap_ts[-1] >= -1e-8
    # weak duality and level-set containment along the whole trajectory
    assert res.dual_bound <= res.f_star + 1e-12
    f0 = eval_f(p, np.array([1.0 / 3.0, 1.0 / 3.0]))
    assert all(f <= f0 + 1e-12 for f in diag.f)
    assert all(b <= res.f_star + 1e-10 for b in diag.dual)
    # the non-monotone reference value never increases
    assert np.all(np.diff(diag.f_bar) <= 1e-12)


def test_solve_relaxation_monotone_mode_decreases():
    p = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0))
    diag = RelaxationDiagnostics()
    res = solve_relaxation(p, [1.0 / 3.0, 1.0 / 3.0], monotone=True, diag=diag)
    assert res.status is RelaxationStatus.OPTIMAL
    f = np.asarray(diag.f)
    assert np.all(np.diff(f) <= 0.0)
    assert f[-1] < f[0]


def test_solve_relaxation_matches_projected_gradient_oracle():
    rng = np.random.default_rng(97)
    for trial in range(20):
        p = _random_problem(rng, 8, LinearRisk((0.5, 1.0, 2.0)[trial % 3]))
        res = solve_relaxation(p, np.full(8, 1.0 / 16.0))
        f_pgd, _ = _pgd_min(p, np.full(8, 1.0 / 16.0))
        assert res.f_star == pytest.approx(f_pgd, abs=1e-6)
        assert res.dual_bound <= f_pgd + 1e-10


def _pgd_min(p, z0, max_iter=1_000_000):
    """Fixed-step projected gradient descent, an independent minimizer.

    The step uses the curvature bound |h''~| lam_max(Q) / sqrt(d) valid for a
    linear weighting on problems with d > 0.
    """
    lam_max = float(np.linalg.eigvalsh(p.Q)[-1])
    step = 0.9 * math.sqrt(p.d) / (p.h.omega * lam_max)
    z = np.asarray(z0, dtype=float)
    for _ in range(max_iter):
        z_new = project_capped_simplex(z - step * grad_f(p, z))
        if float(np.max(np.abs(z_new - z))) <= 1e-14:
            z = z_new
            break
        z = z_new
    return eval_f(p, z), z


@pytest.mark.parametrize("h", [QuadraticRisk(1.0), ExpThresholdRisk(0.0)])
def test_solve_relaxation_passes_through_origin_for_smooth_weightings(h, monkeypatch):
    # on this d = 0 root the origin is not optimal and e1 is far above f(0)
    # = 0 (3.1e3 under quad, 2.0e24 under exp), so the solve starts from a
    # repaired point below f(0); from there it keeps a finite gradient for
    # all 4000 iterations, ends below f(0) and closes the bracket below 1
    inst = generate_instance(50, 0.5, 1.0, seed=7)
    p = simplex_transform(FixedSubproblem.root(inst), h)
    assert not origin_optimality_check(p).origin_optimal
    e1 = np.zeros(p.dim)
    e1[0] = 1.0
    monkeypatch.setattr(fw, "_MAX_ITER", 4000)
    res = solve_relaxation(p, e1)
    assert res.iters == 4000
    assert res.f_star < eval_f(p, np.zeros(p.dim))
    assert res.f_star - res.dual_bound < 1.0


def test_solve_relaxation_rejects_origin_start_when_root_term_vanishes(monkeypatch):
    # the origin is not optimal, so the origin start is replaced: f is 0 at
    # both the origin and the best vertex e1, and the certificate e1 first
    # beats f(0) at t = 1/2; from there the solve reaches the interior optimum
    monkeypatch.setattr(fw, "_MAX_ITER", 5000)
    p = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0))
    diag = RelaxationDiagnostics()
    res = solve_relaxation(p, np.zeros(2), diag=diag)
    assert diag.f[0] == eval_f(p, [0.5, 0.0])
    np.testing.assert_allclose(res.z_star, [0.5, 0.25], atol=1e-6)
    assert res.f_star == pytest.approx(-0.3125, abs=1e-9)
    assert res.dual_bound <= -0.3125 + 1e-12
    # with d > 0 the objective is smooth at zero and the origin start is fine
    smooth = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0), d=0.5)
    res = solve_relaxation(smooth, np.zeros(2))
    np.testing.assert_allclose(res.z_star, [0.5, 0.25], atol=1e-6)
    assert res.f_star == pytest.approx(0.1875, abs=1e-9)


def test_solve_relaxation_skips_the_screen_when_only_d_vanishes():
    # the origin check needs c = 0 too; with c != 0 the loop runs from z0
    # as given, and an origin start, where the gradient blows up, is refused
    p = _problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0), c=[0.1, 0.0])
    diag = RelaxationDiagnostics()
    res = solve_relaxation(p, [0.5, 0.5], diag=diag)
    assert diag.f[0] == eval_f(p, [0.5, 0.5])
    assert res.status is RelaxationStatus.OPTIMAL
    assert res.iters > 0 and res.state is not None
    assert res.dual_bound <= res.f_star + 1e-12
    with pytest.raises(ValueError):
        solve_relaxation(p, np.zeros(2))


def _overflowing_problem(q0):
    # exp(sqrt(q)) overflows float64 for q above ~5.04e5, so e1 overflows
    # f at q0 = 1e6, while at q0 = 2e6 the point e1 / 2 keeps a finite f
    # and a finite slope whose product with dq overflows the gradient
    return _problem(np.diag([q0, 1.0]), [1.0, 1.0], ExpThresholdRisk(0.0), d=0.5)


def test_solve_relaxation_replaces_an_overflowing_start_by_the_origin():
    # f(e1) is +inf; a start just inside overflow (f = 1.4e217 at e1 / 2)
    # would sit in the non-monotone memory and hold the iterate near it
    p = _overflowing_problem(1e6)
    assert eval_f(p, [1.0, 0.0]) == math.inf
    diag = RelaxationDiagnostics()
    res = solve_relaxation(p, [1.0, 0.0], prune_threshold=math.inf, diag=diag)
    assert diag.f[0] == eval_f(p, np.zeros(2))
    assert res.f_star < 1e-3
    assert res.dual_bound <= res.f_star


def test_solve_relaxation_ends_on_an_overflowing_gradient_without_a_numpy_warning():
    p = _overflowing_problem(2e6)
    z0 = [0.5, 0.0]
    assert math.isfinite(eval_f(p, z0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grad_f(p, z0)[0] == math.inf
        res = solve_relaxation(p, z0)
    assert res.status is RelaxationStatus.ITER_LIMIT
    assert res.iters == 1
    assert res.dual_bound == -math.inf


def test_solve_relaxation_line_search_stall_keeps_a_valid_bound(monkeypatch, caplog):
    p, _ = interior_quad_problem(5)
    z0 = np.full(p.dim, 0.5 / p.dim)
    k = 5
    calls = 0

    def stalls_on_call_k(*args):
        nonlocal calls
        calls += 1
        if calls == k:
            raise LineSearchStall("forced")
        return line_search(*args)

    monkeypatch.setattr(fw, "line_search", stalls_on_call_k)
    with caplog.at_level(logging.WARNING, logger="meanrisk.fw"):
        res = solve_relaxation(p, z0)
    assert res.status is RelaxationStatus.ITER_LIMIT
    assert res.iters == k
    assert res.dual_bound <= res.f_star + 1e-10
    assert [rec.getMessage() for rec in caplog.records] == [
        "line search stalled; node keeps its last valid bound"
    ]


def test_solve_relaxation_prune_threshold_stops_early():
    p = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0))
    z0 = [1.0 / 3.0, 1.0 / 3.0]
    res = solve_relaxation(p, z0, prune_threshold=-1.0)
    assert res.status is RelaxationStatus.PRUNED_BY_BOUND
    assert res.iters == 1
    assert res.dual_bound >= -1.0
    # a threshold the dual bound can never reach leaves the solve untouched
    res = solve_relaxation(p, z0, prune_threshold=-0.2)
    assert res.status is RelaxationStatus.OPTIMAL


def test_solve_relaxation_drift_window_exit_keeps_valid_bound():
    # the threshold decides the exit: without one the solve runs to its
    # certificate, and with one, even one the bound can never reach, the
    # drift exit stops it at its second window check with a valid bound
    p, _ = interior_quad_problem(5)
    z0 = np.full(p.dim, 0.5 / p.dim)
    full = solve_relaxation(p, z0)
    assert full.status is RelaxationStatus.OPTIMAL
    assert full.iters == 887
    early = solve_relaxation(p, z0, prune_threshold=math.inf)
    assert early.status is RelaxationStatus.ITER_LIMIT
    assert early.iters == 2 * fw._DRIFT_WINDOW
    assert early.dual_bound <= full.f_star + 1e-10


def test_solve_relaxation_with_diagnostics_reverifies_every_step(monkeypatch):
    # a trial objective 1.0 too low lets the line search accept a step that
    # raises f; a solve given diagnostics re-evaluates the step from scratch
    # and raises, while a solve without them does not look
    trial_objective = IterateState.trial_objective

    def understated(self, vertex, tau):
        return trial_objective(self, vertex, tau) - 1.0

    monkeypatch.setattr(IterateState, "trial_objective", understated)
    p = _problem(np.eye(2), [1.0, 0.5], QuadraticRisk(1.0), d=0.5)
    z0 = [1.0 / 3.0, 1.0 / 3.0]
    with pytest.raises(AssertionError, match="fails the acceptance test on re-evaluation"):
        solve_relaxation(p, z0, diag=RelaxationDiagnostics())
    monkeypatch.setattr(fw, "_MAX_ITER", 20)
    res = solve_relaxation(p, z0)
    assert res.iters == 20


def test_result_at_origin_constructor():
    # the origin is optimal on this d = 0 problem, so solve_relaxation
    # screens it and returns the same result from any start
    p = _problem(np.eye(3), [-1.0, -2.0, -0.5], LinearRisk(2.0))
    for res in (RelaxationResult.at_origin(p), solve_relaxation(p, np.full(3, 0.25))):
        assert res.status is RelaxationStatus.ORIGIN_OPTIMAL
        assert res.iters == 0
        assert res.state is None
        np.testing.assert_array_equal(res.z_star, np.zeros(3))
        assert res.f_star == 0.0
        assert res.dual_bound == res.f_star
