"""Branch and bound: heuristic, branching order, warmstarts, full solves."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from conftest import CRITERION_RISKS, interior_quad_problem, small_domain_instance
from meanrisk import bnb
from meanrisk.bnb import (
    BnbConfig,
    ChildValues,
    SolveStatus,
    WarmstartRule,
    _polish_leaf,
    greedy_upper_bound,
    select_branching_variable,
    solve,
    warmstart_point,
)
from meanrisk.fw import RelaxationResult
from meanrisk.instances import generate_instance
from meanrisk.model import (
    FixedSubproblem,
    LinearRisk,
    MeanRiskInstance,
    QuadraticRisk,
    SimplexProblem,
    eval_f,
    fix_variable,
    objective_min,
    portfolio_summary,
    simplex_transform,
    solution_checks,
)
from meanrisk.oracle import oracle_solve


def _inst(r, a, b, M, integer_set=(), name=""):
    return MeanRiskInstance(
        r=np.asarray(r, dtype=float),
        a=np.asarray(a, dtype=float),
        b=float(b),
        M=np.asarray(M, dtype=float),
        integer_set=integer_set,
        name=name,
    )


# ----------------------------------------------------------------- greedy


def test_greedy_fills_profitable_integer_item():
    inst = _inst([10.0, 1.0], [1.0, 1.0], 3.0, np.eye(2), integer_set=(0, 1))
    inc = greedy_upper_bound(inst, LinearRisk(1.0))
    np.testing.assert_array_equal(inc.y, [3.0, 0.0])
    assert inc.value_min == pytest.approx(3.0 - 30.0, abs=1e-12)


def test_greedy_returns_empty_portfolio_when_nothing_is_profitable():
    inst = _inst([0.5, 0.5], [1.0, 1.0], 3.0, np.eye(2), integer_set=(0, 1))
    inc = greedy_upper_bound(inst, LinearRisk(1.0))
    np.testing.assert_array_equal(inc.y, [0.0, 0.0])
    assert inc.value_min == 0.0


def test_greedy_is_feasible_and_above_the_optimum():
    for seed in range(10):
        inst = small_domain_instance(seed)
        for h in CRITERION_RISKS:
            inc = greedy_upper_bound(inst, h)
            assert float(inst.a @ inc.y) <= inst.b + 1e-9
            assert all(inc.y[i] == round(inc.y[i]) for i in inst.integer_set)
            best, _ = oracle_solve(inst, h)
            # a feasible point can never score below the true minimum
            assert inc.value_min >= -best - 1e-9
            assert inc.value_min == pytest.approx(objective_min(inst, inc.y, h), abs=0)


# -------------------------------------------------------------- branching


def test_branching_picks_most_fractional_variable():
    inst = _inst([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 5.0, np.eye(3), integer_set=(0, 1, 2))
    sub = FixedSubproblem.root(inst)
    assert select_branching_variable(sub, inst.integer_set, np.array([2.0, 1.5, 0.1])) == 1
    # integral relaxation: fall back to the lowest-index unfixed variable
    assert select_branching_variable(sub, inst.integer_set, np.array([2.0, 1.0, 0.0])) == 0
    # no unfixed integer variables left
    assert select_branching_variable(sub, (), np.array([2.0, 1.5, 0.1])) is None


def test_branching_skips_fixed_and_continuous_variables():
    inst = _inst([1.0] * 3, [1.0] * 3, 5.0, np.eye(3), integer_set=(0, 1))
    sub = fix_variable(FixedSubproblem.root(inst), 0, 2)
    # variable 0 is fixed and variable 2 is continuous; only 1 remains
    assert select_branching_variable(sub, inst.integer_set, np.array([0.0, 1.4, 0.9])) == 1


def test_child_values_order_by_distance():
    assert list(ChildValues(2.3, 5)) == [2, 3, 1, 4, 0, 5]
    assert list(ChildValues(0.2, 3)) == [0, 1, 2, 3]
    # the exact half rounds down, then emits the smaller of tied pairs first
    assert list(ChildValues(2.5, 5)) == [2, 3, 1, 4, 0, 5]
    assert list(ChildValues(-0.7, 2)) == [0, 1, 2]
    assert list(ChildValues(7.2, 3)) == [3, 2, 1, 0]
    assert list(ChildValues(0.0, 0)) == [0]


def test_child_values_cut_drops_one_side():
    cv = ChildValues(2.3, 5)
    assert next(cv) == 2 and next(cv) == 3
    cv.cut(3)  # above the relaxation value: no more values from the high side
    assert list(cv) == [1, 0]

    cv = ChildValues(2.3, 5)
    assert next(cv) == 2
    cv.cut(2)  # at the anchor below y_star: the whole low side goes
    assert list(cv) == [3, 4, 5]

    cv = ChildValues(2.0, 4)
    assert next(cv) == 2
    cv.cut(2)  # exactly the relaxation value: both sides go
    assert list(cv) == []


def test_child_values_rejects_negative_upper():
    with pytest.raises(ValueError):
        ChildValues(0.5, -1)


# -------------------------------------------------------------- warmstart


def test_warmstart_keeps_feasible_parent_point():
    inst = _inst([1.0, 1.0, 1.0], [2.0, 4.0, 5.0], 10.0, np.eye(3))
    sub = FixedSubproblem.root(inst)
    p = simplex_transform(sub, QuadraticRisk(1.0))
    x_tilde = np.array([0.2, 0.3, 0.1])
    parent_y = x_tilde * p.scale
    for rule in (WarmstartRule.X_OR_E1, WarmstartRule.X_OR_PROJ, WarmstartRule.X_OR_EHAT):
        z = warmstart_point(sub, p, parent_y, rule, QuadraticRisk(1.0))
        np.testing.assert_allclose(z, x_tilde, rtol=1e-12)


def test_warmstart_fallbacks_on_infeasible_parent():
    inst = _inst([0.1, 5.0], [1.0, 1.0], 1.0, np.eye(2))
    sub = FixedSubproblem.root(inst)
    h = LinearRisk(1.0)
    p = simplex_transform(sub, h)
    parent_y = np.array([0.8, 0.9]) * p.scale  # rescaled sum 1.7 breaks the cap
    z = warmstart_point(sub, p, parent_y, WarmstartRule.X_OR_E1, h)
    np.testing.assert_array_equal(z, [1.0, 0.0])
    z = warmstart_point(sub, p, parent_y, WarmstartRule.X_OR_PROJ, h)
    np.testing.assert_allclose(z, [0.45, 0.55], rtol=1e-12)
    # greedy fallback: vertex 1 has the far better single-vertex value
    z = warmstart_point(sub, p, parent_y, WarmstartRule.X_OR_EHAT, h)
    np.testing.assert_array_equal(z, [0.0, 1.0])


def test_warmstart_root_rules():
    inst = _inst([0.1, 5.0], [1.0, 1.0], 1.0, np.eye(2))
    sub = FixedSubproblem.root(inst)
    h = LinearRisk(1.0)
    p = simplex_transform(sub, h)
    np.testing.assert_array_equal(warmstart_point(sub, p, None, WarmstartRule.E1, h), [1.0, 0.0])
    np.testing.assert_array_equal(
        warmstart_point(sub, p, None, WarmstartRule.X_OR_E1, h), [1.0, 0.0]
    )
    np.testing.assert_array_equal(
        warmstart_point(sub, p, None, WarmstartRule.X_OR_PROJ, h), [1.0, 0.0]
    )
    np.testing.assert_array_equal(warmstart_point(sub, p, None, WarmstartRule.EHAT, h), [0.0, 1.0])
    np.testing.assert_array_equal(
        warmstart_point(sub, p, None, WarmstartRule.X_OR_EHAT, h), [0.0, 1.0]
    )


def test_warmstart_drops_just_fixed_coordinate():
    inst = _inst([1.0] * 3, [1.0, 2.0, 4.0], 8.0, np.eye(3), integer_set=(1,))
    h = QuadraticRisk(1.0)
    sub = fix_variable(FixedSubproblem.root(inst), 1, 1)
    p = simplex_transform(sub, h)
    parent_y = np.array([0.5, 1.0, 0.25])
    z = warmstart_point(sub, p, parent_y, WarmstartRule.X_OR_PROJ, h)
    np.testing.assert_allclose(z, parent_y[[0, 2]] / p.scale, rtol=1e-12)


# ------------------------------------------------------------- leaf polish


def test_polish_leaf_reaches_the_interior_optimum():
    p, z_target = interior_quad_problem(0)
    z0 = np.full(p.dim, 0.02)
    z = _polish_leaf(p, z0)
    assert eval_f(p, z) < eval_f(p, z0)
    assert eval_f(p, z) <= eval_f(p, z_target) + 1e-10
    np.testing.assert_allclose(z, z_target, atol=1e-5)


def test_polish_leaf_never_worsens():
    p, z_target = interior_quad_problem(1)
    z = _polish_leaf(p, z_target)
    assert eval_f(p, z) <= eval_f(p, z_target)


# ------------------------------------------------------------- full solves


def test_solve_matches_oracle_on_small_instances():
    for seed in range(6):
        inst = small_domain_instance(seed)
        h = CRITERION_RISKS[seed % 3]
        report = solve(inst, h)
        best, y_best = oracle_solve(inst, h)
        assert report.status is SolveStatus.OPTIMAL
        assert report.objective_max == pytest.approx(best, abs=1e-6 * max(1.0, abs(best)))
        assert float(inst.a @ report.y) <= inst.b + 1e-9
        for i in inst.integer_set:
            assert abs(report.y[i] - round(report.y[i])) <= 1e-9


def test_solve_pure_continuous_takes_one_node():
    inst = generate_instance(6, integer_fraction=0.0, budget_multiplier=0.05, seed=3)
    inst = dataclasses.replace(inst, r=inst.r * 100.0)
    report = solve(inst, QuadraticRisk(1.0))
    assert report.nodes == 1
    best, _ = oracle_solve(inst, QuadraticRisk(1.0))
    assert report.objective_max == pytest.approx(best, abs=1e-6 * max(1.0, abs(best)))


def test_solve_budget_below_every_price_forces_zero():
    inst = _inst([5.0, 4.0], [2.0, 3.0], 1.5, np.eye(2), integer_set=(0, 1))
    report = solve(inst, LinearRisk(1.0))
    assert report.status is SolveStatus.OPTIMAL
    np.testing.assert_array_equal(report.y, [0.0, 0.0])
    assert report.objective_max == 0.0
    assert report.nnz == 0 and report.max_entry == 0.0


def test_solve_huge_risk_aversion_keeps_the_origin():
    inst = generate_instance(4, integer_fraction=1.0, seed=2)
    report = solve(inst, LinearRisk(1000.0))
    assert report.status is SolveStatus.OPTIMAL
    assert report.nodes == 1  # settled by the origin test at the root
    np.testing.assert_array_equal(report.y, np.zeros(4))
    assert report.objective_max == 0.0
    assert report.return_term == 0.0


def test_solve_time_limit_returns_heuristic():
    inst = small_domain_instance(1)
    h = QuadraticRisk(1.0)
    report = solve(inst, h, BnbConfig(time_limit=1e-9))
    assert report.status is SolveStatus.TIME_LIMIT
    inc = greedy_upper_bound(inst, h)
    np.testing.assert_array_equal(report.y, inc.y)
    assert report.objective_max == pytest.approx(-inc.value_min, abs=0)


def test_solve_node_audit_sees_every_relaxation():
    inst = small_domain_instance(0)
    seen = []
    report = solve(
        inst, QuadraticRisk(1.0), node_audit=lambda p, res: seen.append((p, res))
    )
    assert 1 <= len(seen) <= report.nodes
    assert all(isinstance(p, SimplexProblem) for p, _ in seen)
    assert all(isinstance(res, RelaxationResult) for _, res in seen)


def test_solve_report_dict_round_trips_values():
    inst = small_domain_instance(2)
    report = solve(inst, LinearRisk.from_confidence(0.95))
    doc = report.to_dict()
    assert doc["status"] == "optimal"
    assert doc["objective_max"] == report.objective_max
    assert doc["y"] == [float(v) for v in report.y]
    assert doc["nodes"] == report.nodes >= 1
    assert doc["return_term"] == pytest.approx(float(inst.r @ report.y), abs=0)
    assert doc["nnz"] == int(np.sum(np.abs(report.y) > 1e-9))
    assert list(doc) == [f.name for f in dataclasses.fields(report)]
    summary = portfolio_summary(inst, report.y)
    assert (report.return_term, report.nnz, report.max_entry) == tuple(summary.values())


def test_solve_counts_polished_leaves_without_logging(monkeypatch, caplog):
    # on this small-budget quad instance the continuous leaf's relaxation
    # ends without an optimality certificate and is re-polished
    polished = 0
    polish_leaf = bnb._polish_leaf

    def counted(p, z0):
        nonlocal polished
        polished += 1
        return polish_leaf(p, z0)

    monkeypatch.setattr(bnb, "_polish_leaf", counted)
    with caplog.at_level(logging.WARNING, logger="meanrisk"):
        report = solve(generate_instance(20, 0.25, 0.02, seed=7), QuadraticRisk(1.0))
    assert report.status is SolveStatus.OPTIMAL
    assert report.uncertified_leaves == polished == 1
    assert report.to_dict()["uncertified_leaves"] == 1
    assert not caplog.records
    # every variable integral: no continuous leaf, nothing to certify
    report = solve(small_domain_instance(1), QuadraticRisk(1.0))
    assert report.uncertified_leaves == 0
    assert polished == 1


def test_solve_rejects_an_infeasible_candidate_with_one_error(monkeypatch, caplog):
    # the polished leaf of this instance is replaced by a point that spends
    # twice the budget; the incumbent must stay feasible
    monkeypatch.setattr(bnb, "_polish_leaf", lambda p, z0: np.full(p.dim, 2.0 / p.dim))
    inst = generate_instance(20, 0.25, 0.02, seed=7)
    with caplog.at_level(logging.ERROR, logger="meanrisk"):
        report = solve(inst, QuadraticRisk(1.0))
    assert [rec.getMessage() for rec in caplog.records] == [
        "candidate rejected: budget respected"
    ]
    assert all(ok for _, ok, _ in solution_checks(inst, report.y))


def test_solve_warmstart_rules_agree():
    for seed in (0, 3):
        inst = small_domain_instance(seed)
        h = CRITERION_RISKS[seed % 3]
        values = {
            rule: solve(inst, h, BnbConfig(warmstart=rule)).objective_max
            for rule in WarmstartRule
        }
        ref = values[WarmstartRule.X_OR_PROJ]
        for rule, val in values.items():
            assert val == pytest.approx(ref, abs=1e-8), rule


def test_config_validation():
    for kwargs in ({"time_limit": 0.0}, {"time_limit": math.nan}, {"tol": 0.0}, {"tol": math.nan}):
        with pytest.raises(ValueError):
            BnbConfig(**kwargs)


def test_config_maps_onto_every_relaxation(monkeypatch):
    # the drift exit must stay armed: without it a node can run up to
    # max_iter Frank-Wolfe iterations
    seen = []
    solve_relaxation = bnb.fw.solve_relaxation

    def captured(p, z0, prune_threshold=None, cfg=None, **kwargs):
        res = solve_relaxation(p, z0, prune_threshold=prune_threshold, cfg=cfg, **kwargs)
        seen.append((cfg, prune_threshold))
        return res

    monkeypatch.setattr(bnb.fw, "solve_relaxation", captured)
    inst = small_domain_instance(0)
    h = QuadraticRisk(1.0)
    incumbent = greedy_upper_bound(inst, h).value_min
    for cfg, p_nm, gap_tol in (
        (BnbConfig(), 1, 1e-10),
        (BnbConfig(monotone=True, tol=1e-8), 0, 1e-8),
    ):
        seen.clear()
        solve(inst, h, cfg)
        assert {(c.p_nm, c.gap_tol, c.drift_window) for c, _ in seen} == {(p_nm, gap_tol, 200)}
        # the root relaxation runs against the greedy incumbent
        assert seen[0][1] == incumbent - cfg.tol
