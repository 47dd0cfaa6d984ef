"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, draw_probes, universe_cells, use_checkout_source  # noqa: E402

use_checkout_source()

from meanrisk import bnb, fw, instances  # noqa: E402
from meanrisk.model import risk_from_dict  # noqa: E402

import run  # noqa: E402
from answer import check_answer  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "12345",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("env: nproc=")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in wanted:
        assert any(line.startswith(f"{m['name']} = ") for line in lines)


def _one_pass(pool, cells, monkeypatch):
    """Records of exactly ``cells``: one whole pass that is never cut."""
    monkeypatch.setattr(run, "HARD_STOP", math.inf)
    return run.measure(pool, [cells], 1e-9, whole_passes=True)


def _solved():
    """A wide instance solved at the seed commit's reference answer."""
    w = WORKLOADS["wide"]
    cell = universe_cells(w)[0]
    inst = instances.generate_instance(w.n, w.integer_fraction, w.budget_multiplier, seed=cell.seed)
    h = risk_from_dict(w.risks[cell.risk])
    return inst, h, bnb.solve(inst, h), cell.objective_max


def _bump_first_integer(inst, y):
    y = np.array(y)
    y[inst.integer_set[0]] += 0.5
    return y


TAMPERS = {
    "status": lambda inst, rep: dataclasses.replace(rep, status=bnb.SolveStatus.TIME_LIMIT),
    "negative": lambda inst, rep: dataclasses.replace(rep, y=rep.y - 1.0),
    "budget": lambda inst, rep: dataclasses.replace(rep, y=rep.y + 2.0 * inst.b / inst.a),
    "fractional": lambda inst, rep: dataclasses.replace(rep, y=_bump_first_integer(inst, rep.y)),
    "objective": lambda inst, rep: dataclasses.replace(rep, objective_max=rep.objective_max + 1e-6),
}


def test_untampered_answer_passes():
    inst, h, report, ref = _solved()
    assert check_answer(inst, h, report, ref) is None


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_answer_fails_the_check(tamper):
    inst, h, report, ref = _solved()
    bad = TAMPERS[tamper](inst, report)
    assert check_answer(inst, h, bad, ref) is not None


def test_wrong_reference_fails_the_check():
    inst, h, report, ref = _solved()
    assert check_answer(inst, h, report, ref + 1e-3) is not None
    # the tolerance scales with the reference: 1e-5 off a small optimum fails
    assert abs(ref) < 0.1
    assert check_answer(inst, h, report, ref * (1.0 + 1e-5)) is not None
    assert check_answer(inst, h, report, ref * (1.0 + 1e-8)) is None


def test_screen_probes_cells_away_from_the_origin():
    w = WORKLOADS["screen"]
    cells = universe_cells(w)
    for seed in range(5):
        probes = draw_probes(w, cells, random.Random(seed))
        assert len(set(probes)) == w.probes > 0
        assert all(c.objective_max != 0.0 for c in probes)


def test_tampered_answer_counts_in_solved_frac(monkeypatch):
    pool = run.Pool(WORKLOADS["wide"], 3)
    real_solve = bnb.solve
    calls = []

    def tampered_every_other(inst, h, cfg):
        report = real_solve(inst, h, cfg)
        calls.append(1)
        if len(calls) % 2 == 0:
            report = dataclasses.replace(report, objective_max=report.objective_max + 1e-3)
        return report

    monkeypatch.setattr(bnb, "solve", tampered_every_other)
    records = _one_pass(pool, pool.passes[0][:4], monkeypatch)
    metrics = run.end_to_end(records, [], 1.0)
    assert [r[3] is None for r in records] == [True, False, True, False]
    assert metrics["solved_frac"][0] == 0.5
    # a failed probe counts in solved_frac but not in the timings
    metrics = run.end_to_end(records[:1], records[1:2], 1.0)
    assert metrics["solved_frac"][0] == 0.5
    assert metrics["solves_per_s"][0] == 1.0 / records[0][1]


def test_hd_quantile_is_a_quantile_estimate():
    xs = [float(v) for v in range(1, 102)]
    assert run.hd_quantile(xs, 0.5) == pytest.approx(51.0)
    assert run.hd_quantile([2.5] * 7, 0.75) == pytest.approx(2.5)
    assert 74.0 < run.hd_quantile(xs, 0.75) < 78.0


def _module_state():
    return {(mod.__name__, k): v for mod in (bnb, fw, instances) for k, v in vars(mod).items()}


def test_traced_run_restores_every_wrapped_attribute(monkeypatch):
    before = _module_state()
    w = WORKLOADS["screen"]
    pool = run.Pool(w, 0)
    records = _one_pass(pool, pool.passes[0][:2], monkeypatch)
    tracer, traced, metrics = run.per_layer(pool, records, w)
    assert _module_state() == before
    assert all(before[k] is v for k, v in _module_state().items())
    assert [r[2].objective_max for r in traced] == [r[2].objective_max for r in records]
    assert metrics["fw.origin_check.calls"][0] >= 2
    assert {s.name for s in tracer.spans} >= {"bnb.solve", "fw.origin_check", "instances.generate"}

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert bnb.solve is not before[("meanrisk.bnb", "solve")]
            raise RuntimeError("boom")
    assert all(before[k] is v for k, v in _module_state().items())


def test_self_times_partition_the_solve():
    w = WORKLOADS["tight"]
    pool = run.Pool(w, 1)
    records = run.measure(pool, pool.passes, 1e-9, whole_passes=False)
    assert len(records) == 1
    tracer, _, metrics = run.per_layer(pool, records, w)
    own = tracer.self_times()
    in_solve = sum(t for s, t in zip(tracer.spans, own) if s.solve)
    assert in_solve == pytest.approx(metrics["trace.solve_s"][0], rel=1e-9)
    assert min(own) > -1e-9
    assert 0.0 < metrics["fw.line_search.s"][0] < metrics["fw.relax.s"][0]
