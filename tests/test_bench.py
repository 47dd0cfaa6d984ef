"""Benchmark harness: grids, record sweeps, profiles, CSV output."""

import dataclasses
import io
import json

import pytest

from meanrisk.bench import (
    PROFILE_FIELDS,
    RECORD_FIELDS,
    CellConfig,
    epsilon_budget_grid,
    load_grid,
    performance_profile,
    run_bench,
    write_profile_csv,
    write_records_csv,
)
from meanrisk.bnb import BnbConfig, WarmstartRule
from meanrisk.instances import generate_instance, save_instance


def _rec(config, instance, status, wall_time):
    return {"config": config, "instance": instance, "status": status, "wall_time": wall_time}


# ------------------------------------------------------------------ grids


def test_epsilon_budget_grid_is_three_by_three():
    cells = epsilon_budget_grid()
    assert len(cells) == 9
    assert [c.name for c in cells[:3]] == ["eps0.91-b1", "eps0.91-b10", "eps0.91-b100"]
    assert {c.risk["epsilon"] for c in cells} == {0.91, 0.95, 0.99}
    assert {c.budget_multiplier for c in cells} == {1.0, 10.0, 100.0}
    assert all(c.risk["kind"] == "linear" for c in cells)


def test_cell_label_and_params():
    cell = CellConfig(
        risk={"kind": "linear", "epsilon": 0.95},
        solver=BnbConfig(warmstart="e1", monotone=True),
        budget_multiplier=10.0,
    )
    assert cell.label() == "linear-epsilon0.95-b10-e1-monotone"
    assert cell.risk_params() == "epsilon=0.95"
    assert CellConfig(risk={"kind": "quad"}, name="custom").label() == "custom"


def test_load_grid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps(
            {
                "configs": [
                    {"risk": {"kind": "quad", "omega": 1.0}},
                    {"risk": {"kind": "linear", "epsilon": 0.95}, "monotone": True},
                    {
                        "risk": {"kind": "quad", "omega": 1.0},
                        "warmstart": "e1",
                        "tol": 1e-8,
                        "time_limit": 5.0,
                        "budget_multiplier": 2.0,
                        "name": "all",
                    },
                ]
            }
        )
    )
    cells = load_grid(path)
    assert len(cells) == 3
    assert cells[0].risk == {"kind": "quad", "omega": 1.0}
    # an entry without time_limit gets the grid's 600 s
    assert cells[0].solver == BnbConfig(time_limit=600.0)
    assert cells[1].solver == BnbConfig(monotone=True, time_limit=600.0)
    assert cells[2] == CellConfig(
        risk={"kind": "quad", "omega": 1.0},
        solver=BnbConfig(warmstart=WarmstartRule.E1, tol=1e-8, time_limit=5.0),
        budget_multiplier=2.0,
        name="all",
    )

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"configs": []}))
    with pytest.raises(ValueError, match="configs"):
        load_grid(bad)


@pytest.mark.parametrize(
    "entries, match",
    [
        (
            [
                {"risk": {"kind": "quad", "omega": 1.0}},
                {"risk": {"kind": "quad", "omega": 1.0}, "warm_start": "e1"},
            ],
            "entry 1: unknown key 'warm_start'",
        ),
        ([{"warmstart": "e1"}], "entry 0 .*'risk'"),
        ([{"risk": "quad"}], "entry 0 .*'risk'"),
        ([["quad"]], "entry 0 must be an object"),
        ([{"risk": {"kind": "quad"}}], "entry 0: quad risk: missing key 'omega'"),
        (
            [{"risk": {"kind": "exp", "gamma": 1.0, "omega": 2.0}}],
            "entry 0: exp risk: unknown key 'omega'",
        ),
        ([{"risk": {"kind": "linear", "omega": -1.0}}], "entry 0: omega must be"),
        ([{"risk": {"kind": "quad"}, "warmstart": "bogus"}], "entry 0: 'bogus' is not a valid"),
        ([{"risk": {"kind": "quad"}, "tol": 0}], "entry 0: tolerance must be positive"),
        ([{"risk": {"kind": "quad"}, "time_limit": -1}], "entry 0: time limit must be positive"),
        (
            [{"risk": {"kind": "quad"}, "budget_multiplier": 0}],
            "entry 0: budget multiplier must be positive",
        ),
        (
            [{"risk": {"kind": "quad"}, "budget_multiplier": float("inf")}],
            "entry 0: budget multiplier must be positive and finite",
        ),
        (
            [{"risk": {"kind": "quad", "omega": 1.0}, "monotone": "false"}],
            "entry 0: monotone must be a boolean",
        ),
        (
            [{"risk": {"kind": "quad", "omega": 1.0}, "tol": float("inf")}],
            "entry 0: tolerance must be positive and finite",
        ),
        (
            [{"risk": {"kind": "quad", "omega": 1.0}, "warmstart": 5}],
            "entry 0: 5 is not a valid WarmstartRule",
        ),
        ([{"risk": {"kind": "quad", "omega": 1.0}, "solver": {}}], "entry 0: unknown key 'solver'"),
        ([{"risk": {"kind": "quad", "omega": "2"}}], "entry 0: quad risk: 'omega' is not a number"),
        ([{"risk": {"kind": "quad", "omega": True}}], "entry 0: quad risk: 'omega' is not a number"),
    ],
)
def test_load_grid_names_the_malformed_entry(tmp_path, entries, match):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"configs": entries}))
    with pytest.raises(ValueError, match=match):
        load_grid(path)


# ------------------------------------------------------------------ sweeps


def test_run_bench_emits_one_sorted_row_per_cell(tmp_path):
    paths = []
    for seed in (0, 1):
        inst = generate_instance(3, integer_fraction=1.0, budget_multiplier=0.02, seed=seed)
        path = tmp_path / f"inst{seed}.json"
        save_instance(inst, path, seed=seed)
        paths.append(path)
    cells = [
        CellConfig(risk={"kind": "quad", "omega": 1.0}, name="q"),
        CellConfig(risk={"kind": "linear", "epsilon": 0.95}, name="l"),
    ]
    records = run_bench(paths, cells)
    assert len(records) == 4
    keys = [(rec["instance"], rec["config"]) for rec in records]
    assert keys == sorted(keys)
    for rec in records:
        assert set(rec) == set(RECORD_FIELDS)
        assert rec["status"] == "optimal"
        assert rec["nodes"] >= 1
        assert rec["wall_time"] >= 0.0


def test_run_bench_process_pool_matches_serial(tmp_path):
    paths = []
    for seed in (0, 1, 2):
        path = tmp_path / f"inst{seed}.json"
        save_instance(generate_instance(4, 0.5, budget_multiplier=0.05, seed=seed), path)
        paths.append(path)
    cells = [
        CellConfig(risk={"kind": "quad", "omega": 1.0}, name="q"),
        CellConfig(
            risk={"kind": "linear", "epsilon": 0.95},
            solver=dataclasses.replace(CellConfig.solver, monotone=True),
            name="l",
        ),
    ]

    def timeless(records):
        return [{k: v for k, v in rec.items() if k != "wall_time"} for rec in records]

    serial = run_bench(paths, cells)
    assert [rec["status"] for rec in serial] == ["optimal"] * 6
    assert timeless(run_bench(paths, cells, jobs=2)) == timeless(serial)


def test_run_bench_records_uncertified_leaves(tmp_path):
    path = tmp_path / "inst.json"
    inst = generate_instance(20, integer_fraction=0.25, budget_multiplier=0.02, seed=7)
    save_instance(inst, path)
    (rec,) = run_bench([path], [CellConfig(risk={"kind": "quad", "omega": 1.0})])
    assert rec["status"] == "optimal"
    assert rec["uncertified_leaves"] == 1


def test_run_bench_budget_override(tmp_path):
    inst = generate_instance(3, integer_fraction=1.0, seed=2)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    cell = CellConfig(risk={"kind": "quad", "omega": 1.0}, budget_multiplier=0.02)
    (rec,) = run_bench([path], [cell])
    assert rec["budget_mult"] == 0.02
    assert rec["status"] == "optimal"


def test_run_bench_isolates_cell_failures(tmp_path):
    good = tmp_path / "good.json"
    save_instance(generate_instance(3, integer_fraction=1.0, budget_multiplier=0.02, seed=0), good)
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("not json at all")
    cells = [CellConfig(risk={"kind": "quad", "omega": 1.0}, name="q")]
    records = run_bench([good, corrupt], cells)
    assert len(records) == 2
    by_instance = {rec["instance"]: rec for rec in records}
    assert by_instance["synth-n3-seed0"]["status"] == "optimal"
    bad = by_instance[str(corrupt)]
    assert bad["status"].startswith("error:")
    assert bad["objective_max"] == ""


# ---------------------------------------------------------------- profiles


def test_profile_single_config_hits_one_at_tau_one():
    records = [
        _rec("A", "i1", "optimal", 1.0),
        _rec("A", "i2", "optimal", 2.0),
        _rec("A", "i3", "optimal", 4.0),
    ]
    rows = performance_profile(records)
    assert rows == [{"solver_config": "A", "tau": 1.0, "fraction_solved": 1.0}]


def test_profile_dominance_and_unsolved_plateau():
    records = [
        _rec("A", "i1", "optimal", 1.0),
        _rec("A", "i2", "optimal", 1.0),
        _rec("A", "i3", "optimal", 1.0),
        _rec("B", "i1", "optimal", 2.0),
        _rec("B", "i2", "optimal", 2.0),
        _rec("B", "i3", "time_limit", 600.0),
    ]
    rows = performance_profile(records)
    frac = {(row["solver_config"], row["tau"]): row["fraction_solved"] for row in rows}
    assert frac[("A", 1.0)] == 1.0
    assert frac[("A", 2.0)] == 1.0
    assert frac[("B", 1.0)] == 0.0
    # the unsolved cell is excluded from the minima and never counts solved
    assert frac[("B", 2.0)] == pytest.approx(2.0 / 3.0)
    for cfg in ("A", "B"):
        fractions = [row["fraction_solved"] for row in rows if row["solver_config"] == cfg]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert fractions == sorted(fractions)


# --------------------------------------------------------------------- csv


def test_records_csv_has_fixed_header():
    buf = io.StringIO()
    write_records_csv([], buf)
    assert buf.getvalue() == ",".join(RECORD_FIELDS) + "\n"


def test_profile_csv_rows():
    buf = io.StringIO()
    write_profile_csv(
        [{"solver_config": "A", "tau": 1.0, "fraction_solved": 1.0}],
        buf,
    )
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(PROFILE_FIELDS)
    assert lines[1] == "A,1.0,1.0"
