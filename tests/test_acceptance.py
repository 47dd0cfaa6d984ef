"""End-to-end acceptance suite.

Each test covers one headline guarantee, so a verbose run reads as a
pass/fail scoreboard. The expensive artifacts (300 branch-and-bound runs
against the brute-force oracle, 50 certified relaxation solves with full
per-iteration traces) are built once in module-scoped fixtures and shared
by every test that audits them.
"""

import dataclasses

import numpy as np
import pytest

from conftest import (
    CRITERION_RISKS,
    certification_cases,
    origin_grid_verdict,
    projection_oracle,
    random_spd,
    small_domain_instance,
)
from meanrisk import bnb, fw
from meanrisk.bench import (
    epsilon_budget_grid,
    performance_profile,
    run_bench,
    write_profile_csv,
    write_records_csv,
)
from meanrisk.instances import generate_instance, save_instance
from meanrisk.model import (
    FixedSubproblem,
    LinearRisk,
    QuadraticRisk,
    SimplexProblem,
    simplex_transform,
)
from meanrisk.oracle import oracle_solve
from meanrisk.projection import project_capped_simplex


@pytest.fixture(scope="module")
def relaxation_runs():
    """The 50 certification problems solved to a 1e-10 gap with per-step
    re-verification and full diagnostic traces, both armed by ``diag``."""
    runs = []
    for label, p, z_target in certification_cases():
        diag = fw.RelaxationDiagnostics()
        res = fw.solve_relaxation(p, np.full(p.dim, 0.5 / p.dim), diag=diag)
        runs.append((label, p, z_target, res, diag))
    return runs


@pytest.fixture(scope="module")
def solver_runs():
    """100 seeded small-domain instances crossed with the three risk
    weightings: solver report, oracle value, and the per-node audit trail."""
    runs = []
    for seed in range(100):
        inst = small_domain_instance(seed)
        for h in CRITERION_RISKS:
            audit = []

            def record(p, res, into=audit):
                into.append((p, res))

            report = bnb.solve(inst, h, node_audit=record)
            best, _ = oracle_solve(inst, h)
            runs.append((inst, h, report, best, audit))
    return runs


def test_01_solver_matches_enumeration_oracle(solver_runs):
    assert len(solver_runs) == 300
    for inst, h, report, best, _ in solver_runs:
        assert report.status is bnb.SolveStatus.OPTIMAL
        assert abs(report.objective_max - best) <= 1e-6 * abs(best) + 1e-12
        y = report.y
        assert float(np.min(y)) >= -1e-9
        assert float(inst.a @ y) <= inst.b + 1e-9 * max(1.0, inst.b)
        dev = max((abs(y[i] - round(y[i])) for i in inst.integer_set), default=0.0)
        assert dev <= 1e-9
        # the family keeps every per-variable domain inside {0, 1, 2}
        assert int(np.max(np.floor(inst.b / inst.a + 1e-12))) <= 2


def test_02_relaxation_solver_certifies_optimality(relaxation_runs):
    assert len(relaxation_runs) == 50
    assert {p.dim for _, p, _, _, _ in relaxation_runs} == {5, 20, 50}
    for label, p, z_target, res, diag in relaxation_runs:
        assert res.status is fw.RelaxationStatus.OPTIMAL
        assert diag.gap_ts[-1] >= -1e-10
        if z_target is not None:
            assert float(np.max(np.abs(res.z_star - z_target))) <= 1e-6


def test_03_running_dual_bounds_respect_final_value(relaxation_runs):
    for _, _, _, res, diag in relaxation_runs:
        bounds = np.asarray(diag.f) + np.asarray(diag.gap_ts)
        assert float(np.max(bounds)) <= res.f_star + 1e-10
        assert res.dual_bound <= res.f_star + 1e-10


def test_04_caches_match_scratch_recomputation(relaxation_runs, solver_runs):
    def worst_drift(state):
        return max(state.cache_errors().values())

    for _, _, _, res, _ in relaxation_runs:
        assert res.state is not None
        assert worst_drift(res.state) <= 1e-9
    audited = 0
    for _, _, _, _, audit in solver_runs:
        for _, res in audit:
            if res.state is not None:  # origin-check shortcuts never iterate
                assert worst_drift(res.state) <= 1e-9
                audited += 1
    assert audited > 0


def test_05_accepted_steps_pass_reverification(relaxation_runs):
    # a solve given diagnostics re-evaluates every accepted step from scratch
    # and raises on any violation, so the fixture having been built at all is
    # the per-step evidence; the halving bound is audited here.
    total_steps = 0
    for _, _, _, _, diag in relaxation_runs:
        if diag.halvings:
            assert max(diag.halvings) <= 200
            total_steps += len(diag.halvings)
    assert total_steps > 0


def test_06_reference_sequence_monotone(relaxation_runs):
    for _, _, _, _, diag in relaxation_runs:
        assert np.all(np.diff(np.asarray(diag.f_bar)) <= 0.0)
    # monotone mode: strict decrease at float resolution. Near termination
    # the mandated Armijo decrement can drop below one ulp of f, where a
    # strictly smaller double does not exist; such steps may tie bit-for-bit
    # but must stay rare, and no step may ever increase f.
    total_steps = 0
    total_ties = 0
    for _, p, _, _, _ in relaxation_runs:
        diag = fw.RelaxationDiagnostics()
        fw.solve_relaxation(p, np.full(p.dim, 0.5 / p.dim), monotone=True, diag=diag)
        f = np.asarray(diag.f)
        steps = np.diff(f)
        assert np.all(steps <= 0.0)
        assert f[-1] < f[0]
        total_ties += int(np.count_nonzero(steps == 0.0))
        total_steps += steps.size
    assert total_ties <= max(1, total_steps // 200)


def test_07_projection_matches_active_set_oracle():
    rng = np.random.default_rng(0)
    previous = None
    for _ in range(1000):
        dim = int(rng.integers(1, 13))
        v = rng.standard_normal(dim) * float(rng.choice((0.2, 1.0, 5.0)))
        z = project_capped_simplex(v)
        assert float(np.max(np.abs(z - projection_oracle(v)))) <= 1e-10
        assert float(np.max(np.abs(project_capped_simplex(z) - z))) <= 1e-12
        if previous is not None and previous[0].size == dim:
            v0, z0 = previous
            assert np.linalg.norm(z - z0) <= np.linalg.norm(v - v0) + 1e-12
        previous = (v, z)


def test_08_origin_screen_matches_dense_grid():
    inst = generate_instance(6, seed=11)
    heavy = LinearRisk(1000.0)
    assert fw.origin_optimality_check(simplex_transform(FixedSubproblem.root(inst), heavy)).origin_optimal
    report = bnb.solve(inst, heavy)
    assert np.all(report.y == 0.0)
    assert report.objective_max == 0.0

    check = fw.origin_optimality_check(simplex_transform(FixedSubproblem.root(inst), QuadraticRisk(1.0)))
    assert check.origin_optimal is False
    assert check.inner_value is None  # zero-slope shortcut, no inner solve
    assert check.certificate is not None

    rng = np.random.default_rng(3)
    verdicts = set()
    for i in range(10):
        p = SimplexProblem(
            Q=random_spd(rng, 3, 1.0),
            c=np.zeros(3),
            d=0.0,
            mu=rng.uniform(0.2, 1.0, 3),
            t_off=0.0,
            scale=np.ones(3),
            h=LinearRisk(5.0 if i < 5 else 0.05),
        )
        verdict = fw.origin_optimality_check(p).origin_optimal
        assert verdict == origin_grid_verdict(p)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_09_return_term_shrinks_as_risk_weight_grows():
    base = generate_instance(20, seed=7, budget_multiplier=0.02)
    inst = dataclasses.replace(base, r=100.0 * base.r)
    returns = []
    for eps in (0.99, 0.95, 0.91):
        report = bnb.solve(inst, LinearRisk(epsilon=eps))
        assert report.status is bnb.SolveStatus.OPTIMAL
        returns.append(report.return_term)
    assert returns[1] <= returns[0] + 1e-9
    assert returns[2] <= returns[1] + 1e-9
    assert returns[2] < returns[0]


def test_10_bench_grid_emits_full_records_and_profile(tmp_path):
    paths = []
    for seed in range(3):
        path = tmp_path / f"bench{seed}.json"
        save_instance(generate_instance(4, seed=seed), path, seed=seed)
        paths.append(str(path))
    cells = epsilon_budget_grid()
    assert len(cells) == 9
    records = run_bench(paths, cells)
    assert len(records) == len(paths) * 9

    records_path = tmp_path / "records.csv"
    with open(records_path, "w", encoding="utf-8", newline="") as fh:
        write_records_csv(records, fh)
    assert len(records_path.read_text().splitlines()) == 1 + len(records)

    rows = performance_profile(records)
    profile_path = tmp_path / "profile.csv"
    with open(profile_path, "w", encoding="utf-8", newline="") as fh:
        write_profile_csv(rows, fh)
    assert len(profile_path.read_text().splitlines()) == 1 + len(rows)

    by_config = {}
    for row in rows:  # rows are tau-ordered within each config
        by_config.setdefault(row["solver_config"], []).append(row["fraction_solved"])
    assert set(by_config) == {cell.label() for cell in cells}
    for fractions in by_config.values():
        assert all(0.0 <= frac <= 1.0 for frac in fractions)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))


def test_11_warmstart_rules_agree_on_final_objective(solver_runs):
    other_rules = [r for r in bnb.WarmstartRule if r is not bnb.WarmstartRule.X_OR_PROJ]
    assert len(other_rules) == 4
    for inst, h, report, _, _ in solver_runs:
        for rule in other_rules:
            alt = bnb.solve(inst, h, bnb.BnbConfig(warmstart=rule))
            assert alt.status is bnb.SolveStatus.OPTIMAL
            assert abs(alt.objective_max - report.objective_max) <= 1e-8
