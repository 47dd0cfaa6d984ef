import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanrisk.model import (
    ExpThresholdRisk,
    FixedSubproblem,
    InfeasibleFixing,
    LinearRisk,
    MeanRiskInstance,
    QuadraticRisk,
    SimplexProblem,
    eval_f,
    fix_variable,
    grad_f,
    objective_max,
    objective_min,
    portfolio_summary,
    risk_from_dict,
    simplex_transform,
    solution_checks,
)


def _slope(h, t):
    """h'(t) recovered from dphi: h'(t) = 2 t dphi(t^2)."""
    return 2.0 * t * h.dphi(t * t)


def test_linear_risk_values():
    h = LinearRisk(2.0)
    assert h.phi(9.0) == 6.0
    assert _slope(h, 3.0) == 2.0
    assert h.origin_slope == 2.0
    np.testing.assert_allclose(h.phi(np.array([0.0, 1.0])), [0.0, 2.0])
    assert _slope(h, 1.0) == 2.0
    assert h.dphi(0.0) == math.inf


def test_linear_risk_from_confidence():
    h = LinearRisk.from_confidence(0.95)
    assert h.omega == pytest.approx(np.sqrt(0.05 / 0.95))
    assert h.epsilon == 0.95
    # smaller confidence level puts more weight on risk
    assert LinearRisk.from_confidence(0.91).omega > h.omega
    with pytest.raises(ValueError):
        LinearRisk.from_confidence(0.0)
    with pytest.raises(ValueError):
        LinearRisk.from_confidence(1.5)


def test_quadratic_risk_values():
    h = QuadraticRisk(1.5)
    assert h.phi(4.0) == 6.0
    assert _slope(h, 2.0) == 6.0
    assert h.origin_slope == 0.0
    assert h.dphi(0.0) == 1.5
    np.testing.assert_allclose(h.phi(np.array([1.0, 4.0])), [1.5, 6.0])


def test_exp_threshold_risk_values():
    h = ExpThresholdRisk(1.0)
    assert h.phi(0.25) == 0.0
    assert h.dphi(1.0) == 0.0
    assert h.origin_slope == 0.0
    # value and slope continuous at the threshold
    t = 1.0 + 1e-9
    assert h.phi(t * t) == pytest.approx(0.0, abs=1e-15)
    assert _slope(h, t) == pytest.approx(0.0, abs=1e-8)
    t = 2.5
    assert h.phi(t * t) == pytest.approx(np.exp(1.5) - 2.5)
    assert _slope(h, t) == pytest.approx(np.expm1(1.5))
    assert h.phi(np.array([t * t]))[0] == pytest.approx(h.phi(t * t))


def test_exp_threshold_overflow_is_inf():
    h = ExpThresholdRisk(0.0)
    assert h.phi(1e8) == np.inf
    assert h.dphi(1e8) == np.inf
    assert np.isinf(h.phi(np.array([1e8]))).all()


_weightings = st.one_of(
    st.floats(0.0, 10.0).map(LinearRisk),
    st.floats(0.0, 10.0).map(QuadraticRisk),
    st.floats(0.0, 5.0).map(ExpThresholdRisk),
)


@given(h=_weightings, q=st.floats(1e-2, 50.0))
def test_dphi_matches_central_differences(h, q):
    step = 1e-6 * q
    fd = (h.phi(q + step) - h.phi(q - step)) / (2.0 * step)
    assert h.dphi(q) == pytest.approx(fd, rel=1e-5, abs=1e-6)


@given(h=_weightings, qs=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_array_phi_matches_scalar_phi(h, qs):
    out = h.phi(np.array(qs))
    assert out.shape == (len(qs),)
    np.testing.assert_allclose(out, [h.phi(q) for q in qs], rtol=1e-14, atol=0.0)


@given(
    h=st.one_of(
        st.floats(0.0, 10.0).map(QuadraticRisk),
        st.sampled_from([0.0, 0.5, 2.0]).map(ExpThresholdRisk),
    ),
    frac=st.floats(0.0, 1.0),
)
def test_dphi_continuous_at_zero_for_smooth_weightings(h, frac):
    # for gamma > 0 dphi vanishes on [0, gamma^2); probe well inside
    q = frac * (1e-12 if getattr(h, "gamma", 0.0) == 0.0 else 0.25 * h.gamma**2)
    assert math.isfinite(h.dphi(0.0))
    assert h.dphi(q) == pytest.approx(h.dphi(0.0), abs=1e-6)


def test_exp_dphi_at_zero_is_the_limit_one_half():
    h = ExpThresholdRisk(0.0)
    assert h.dphi(0.0) == 0.5
    assert h.dphi(1e-20) == pytest.approx(0.5, rel=1e-9)
    assert ExpThresholdRisk(1.0).dphi(0.0) == 0.0


def test_linear_dphi_at_zero_is_undefined():
    assert LinearRisk(1.0).dphi(0.0) == math.inf
    assert LinearRisk.from_confidence(0.95).dphi(1e-301) == math.inf


def test_risk_param_validation():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            LinearRisk(bad)
        with pytest.raises(ValueError):
            QuadraticRisk(bad)
        with pytest.raises(ValueError):
            ExpThresholdRisk(bad)


def test_risk_dict_round_trip():
    for h in (
        LinearRisk(0.7),
        LinearRisk.from_confidence(0.95),
        QuadraticRisk(2.0),
        ExpThresholdRisk(1.5),
    ):
        back = risk_from_dict(h.to_dict())
        assert type(back) is type(h)
        assert back.to_dict() == h.to_dict()
    with pytest.raises(ValueError):
        risk_from_dict({"kind": "cubic"})


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"kind": "exp", "gamma": 1.0, "omega": 2.0}, "exp risk: unknown key 'omega'"),
        ({"kind": "quad", "omega": 1.0, "epsilon": 0.9}, "quad risk: unknown key 'epsilon'"),
        ({"kind": "linear", "omega": 1.0, "gamma": 1.0}, "linear risk: unknown key 'gamma'"),
        ({"kind": "quad"}, "quad risk: missing key 'omega'"),
        ({"kind": "exp"}, "exp risk: missing key 'gamma'"),
        ({"kind": "linear"}, "linear risk: missing key 'omega'"),
        ({"omega": 1.0}, "unknown risk kind: None"),
    ],
)
def test_risk_from_dict_names_the_bad_key(spec, match):
    with pytest.raises(ValueError, match=match):
        risk_from_dict(spec)


def test_risk_from_dict_linear_epsilon_wins_over_omega():
    h = risk_from_dict({"kind": "linear", "omega": 5.0, "epsilon": 0.95})
    assert h == LinearRisk.from_confidence(0.95)
    assert risk_from_dict({"kind": "linear", "omega": 5.0, "epsilon": None}) == LinearRisk(5.0)


def _instance(n=3, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    data = dict(
        r=rng.uniform(0.1, 1.0, n),
        a=rng.uniform(1.0, 2.0, n),
        b=3.0,
        M=f @ f.T + np.eye(n),
        integer_set=(0,),
    )
    data.update(overrides)
    return MeanRiskInstance(**data)


def test_instance_validation():
    inst = _instance()
    assert inst.n == 3
    assert not inst.M.flags.writeable
    with pytest.raises(ValueError):
        _instance(a=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        _instance(b=0.0)
    with pytest.raises(ValueError):
        _instance(M=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        _instance(M=-np.eye(3))
    with pytest.raises(ValueError):
        _instance(integer_set=(3,))
    with pytest.raises(ValueError):
        _instance(r=np.ones(2))


def test_objective_sign_symmetry():
    inst = _instance()
    h = QuadraticRisk(1.0)
    y = np.array([0.5, 0.25, 0.0])
    assert objective_max(inst, y, h) == -objective_min(inst, y, h)
    q = float(y @ inst.M @ y)
    assert objective_min(inst, y, h) == pytest.approx(q - float(inst.r @ y))


def test_simplex_transform_by_hand():
    # r = (1, 1), a = (1, 2), b = 2: scale = (2, 1), Q_ij = b^2 M_ij / (a_i a_j)
    inst = MeanRiskInstance(r=[1.0, 1.0], a=[1.0, 2.0], b=2.0, M=[[2.0, 1.0], [1.0, 2.0]])
    p = simplex_transform(FixedSubproblem.root(inst), QuadraticRisk(1.0))
    np.testing.assert_allclose(p.Q, [[8.0, 2.0], [2.0, 2.0]])
    np.testing.assert_allclose(p.mu, [2.0, 1.0])
    np.testing.assert_allclose(p.c, [0.0, 0.0])
    assert p.d == 0.0 and p.t_off == 0.0


def test_simplex_transform_identity():
    inst = MeanRiskInstance(r=[0.5], a=[1.0], b=1.0, M=[[1.0]])
    p = simplex_transform(FixedSubproblem.root(inst), LinearRisk(1.0))
    np.testing.assert_allclose(p.Q, [[1.0]])
    np.testing.assert_allclose(p.mu, [0.5])
    np.testing.assert_allclose(p.scale, [1.0])


def test_simplex_transform_matches_original_objective():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((4, 4))
    inst = MeanRiskInstance(
        r=rng.uniform(0.1, 1.0, 4),
        a=rng.uniform(1.0, 5.0, 4),
        b=4.0,
        M=f @ f.T + np.eye(4),
    )
    h = LinearRisk(0.8)
    p = simplex_transform(FixedSubproblem.root(inst), h)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(0.0, 1.0, 4)
        z /= max(z.sum() / rng.uniform(0.3, 1.0), 1.0)
        y = p.scale * z
        lhs = eval_f(p, z)
        rhs = objective_min(inst, y, h)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-12


def test_fix_variable_by_hand():
    # M = I, c = 0, d = 0, r = (3, 5); fixing the second variable to 2 moves
    # 4*M_22 into the constant and 2*r_2 into the offset
    inst = MeanRiskInstance(r=[3.0, 5.0], a=[1.0, 1.0], b=10.0, M=np.eye(2))
    sub = fix_variable(FixedSubproblem.root(inst), 1, 2)
    np.testing.assert_allclose(sub.M_s, [[1.0]])
    np.testing.assert_allclose(sub.c_s, [0.0])
    assert sub.d_s == 4.0
    assert sub.t_s == 10.0
    np.testing.assert_allclose(sub.r_s, [3.0])
    assert sub.fixings == ((1, 2),)
    assert sub.free_index_map == (0,)
    assert sub.b_s == 8.0


def test_fix_variable_to_zero_is_deletion():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((3, 3))
    inst = MeanRiskInstance(
        r=[1.0, 2.0, 3.0], a=[1.0, 1.0, 1.0], b=5.0, M=f @ f.T + np.eye(3)
    )
    root = FixedSubproblem.root(inst)
    sub = fix_variable(root, 1, 0)
    keep = [0, 2]
    np.testing.assert_array_equal(sub.M_s, inst.M[np.ix_(keep, keep)])
    np.testing.assert_array_equal(sub.c_s, np.zeros(2))
    assert sub.d_s == 0.0 and sub.t_s == 0.0
    assert sub.b_s == 5.0


def test_fix_variable_chain_matches_full_objective():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((5, 5))
    inst = MeanRiskInstance(
        r=rng.uniform(0.1, 1.0, 5),
        a=np.ones(5),
        b=20.0,
        M=f @ f.T + np.eye(5),
    )
    h = QuadraticRisk(0.5)
    sub = fix_variable(FixedSubproblem.root(inst), 2, 1)
    sub = fix_variable(sub, 0, 2)
    assert sub.fixings == ((2, 1), (0, 2))
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(0.0, 2.0, sub.dim)
        y = sub.assemble(x)
        assert y[2] == 1.0 and y[0] == 2.0
        lhs = sub.objective(x, h)
        rhs = objective_min(inst, y, h)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-10


def test_fix_variable_rejects_unaffordable_value():
    inst = MeanRiskInstance(r=[1.0, 1.0], a=[3.0, 1.0], b=5.0, M=np.eye(2))
    root = FixedSubproblem.root(inst)
    with pytest.raises(InfeasibleFixing):
        fix_variable(root, 0, 2)
    with pytest.raises(InfeasibleFixing):
        fix_variable(root, 0, -1)
    with pytest.raises(IndexError):
        fix_variable(root, 5, 0)


def test_simplex_transform_exhausted_nodes():
    inst = MeanRiskInstance(r=[1.0, 1.0], a=[1.0, 1.0], b=2.0, M=np.eye(2))
    sub = fix_variable(fix_variable(FixedSubproblem.root(inst), 0, 1), 0, 1)
    assert sub.dim == 0
    with pytest.raises(ValueError):
        simplex_transform(sub, LinearRisk(1.0))
    spent = fix_variable(FixedSubproblem.root(inst), 0, 2)
    assert spent.b_s == 0.0
    with pytest.raises(ValueError):
        simplex_transform(spent, LinearRisk(1.0))


def _simplex_problem(Q, mu, h, c=None, d=0.0):
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    return SimplexProblem(
        Q=Q,
        c=np.zeros(n) if c is None else np.asarray(c, dtype=float),
        d=d,
        mu=np.asarray(mu, dtype=float),
        t_off=0.0,
        scale=np.ones(n),
        h=h,
    )


def test_eval_grad_quadratic_by_hand():
    # with a unit quadratic weighting f reduces to z'z - mu'z
    p = _simplex_problem(np.eye(2), [1.0, 1.0], QuadraticRisk(1.0))
    z = np.array([0.5, 0.5])
    assert eval_f(p, z) == pytest.approx(-0.5)
    np.testing.assert_allclose(grad_f(p, z), [0.0, 0.0], atol=1e-15)


def test_eval_grad_linear_by_hand():
    p = _simplex_problem([[4.0, 0.0], [0.0, 1.0]], [0.0, 0.0], LinearRisk(2.0))
    z = np.array([0.5, 0.0])
    assert eval_f(p, z) == pytest.approx(2.0)
    np.testing.assert_allclose(grad_f(p, z), [4.0, 0.0])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for h in (LinearRisk(0.7), QuadraticRisk(1.2), ExpThresholdRisk(0.1)):
        for _ in range(34):
            f = rng.standard_normal((6, 6))
            p = _simplex_problem(
                f @ f.T + np.eye(6),
                rng.uniform(-1.0, 1.0, 6),
                h,
                c=rng.uniform(0.0, 0.5, 6),
                d=rng.uniform(0.5, 1.0),
            )
            z = rng.uniform(0.05, 0.15, 6)
            g = grad_f(p, z)
            for i in range(6):
                step = np.zeros(6)
                step[i] = eps
                fd = (eval_f(p, z + step) - eval_f(p, z - step)) / (2.0 * eps)
                assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_grad_undefined_at_origin_without_constant():
    p = _simplex_problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0))
    assert np.all(np.isnan(grad_f(p, np.zeros(2))))
    # a positive constant under the root keeps the gradient defined
    p2 = _simplex_problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0), d=0.5)
    assert np.all(np.isfinite(grad_f(p2, np.zeros(2))))
    # weightings with a finite dphi at q = 0 are smooth there: with c = 0 the
    # risk term's gradient vanishes and only the return remains
    for h in (QuadraticRisk(1.0), ExpThresholdRisk(0.0), ExpThresholdRisk(1.0)):
        p3 = _simplex_problem(np.eye(2), [1.0, 2.0], h)
        np.testing.assert_array_equal(grad_f(p3, np.zeros(2)), [-1.0, -2.0])


def test_vertex_values():
    p = _simplex_problem(np.diag([4.0, 9.0]), [1.0, 2.0], LinearRisk(1.0))
    np.testing.assert_allclose(p.vertex_values(), [2.0 - 1.0, 3.0 - 2.0])


def test_simplex_problem_rejects_negative_constant():
    with pytest.raises(ValueError):
        _simplex_problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0), d=-1.0)


# -------------------------------------------------------- solution contract


def _labels_ok(checks):
    return [(label, ok) for label, ok, _ in checks]


def test_solution_checks_pass_a_feasible_portfolio():
    inst = _instance(b=3.0)  # variable 0 integer
    y = np.array([1.0, 0.25, 0.0])
    assert _labels_ok(solution_checks(inst, y)) == [
        ("solution length", True),
        ("finite entries", True),
        ("nonnegative entries", True),
        ("budget respected", True),
        ("integrality", True),
    ]


def test_solution_checks_flag_each_violation():
    inst = _instance()
    spend_all = inst.b / inst.a[1]
    checks = dict(
        (label, (ok, detail))
        for label, ok, detail in solution_checks(inst, np.array([0.5, 2.0 * spend_all, -1e-6]))
    )
    assert checks["nonnegative entries"] == (False, "min -1e-06")
    assert checks["budget respected"][0] is False
    assert checks["integrality"] == (False, "max deviation 0.5")
    # the budget tolerance is b (1 + 1e-9) + 1e-9, integrality 1e-9
    y = np.array([0.0, spend_all * (1.0 + 5e-10), 0.0])
    assert all(ok for _, ok, _ in solution_checks(inst, y))
    y = np.array([1.0 + 2e-9, 0.0, 0.0])
    assert _labels_ok(solution_checks(inst, y))[-1] == ("integrality", False)


@pytest.mark.parametrize(
    "y, first_bad",
    [([0.0, 0.0], 0), ([np.inf, 0.0, 0.0], 1), ([0.0, np.nan, 0.0], 1), ([[0.0, 0.0, 0.0]], 0)],
)
def test_solution_checks_stop_evaluating_after_a_malformed_portfolio(y, first_bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = solution_checks(_instance(), y)
    assert [ok for _, ok, _ in checks] == [True] * first_bad + [False] * (5 - first_bad)
    assert [detail for _, _, detail in checks[first_bad + 1 :]] == ["not checked"] * (
        4 - first_bad
    )


def test_portfolio_summary():
    inst = _instance()
    y = np.array([2.0, 5e-10, 0.5])
    summary = portfolio_summary(inst, y)
    assert summary == {
        "return_term": float(inst.r @ y),
        "nnz": 2,
        "max_entry": 2.0,
    }
    assert type(summary["nnz"]) is int


def test_grad_f_at_infinite_slope_is_nan_without_warnings():
    p = _simplex_problem(np.eye(2), [1.0, 1.0], LinearRisk(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = grad_f(p, np.zeros(2))
    assert g.shape == (2,) and np.all(np.isnan(g))
