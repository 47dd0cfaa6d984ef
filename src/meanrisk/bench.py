"""Benchmark harness: config grids, per-cell records, performance profiles.

A run crosses a set of instance files with a grid of solver configurations.
Every (instance, config) cell produces one CSV record; cell failures (time
limit, bad data, crashes) land in the ``status`` column and never abort the
run. Wall time is measured around the solve only, excluding parsing.

Records CSV columns: instance, config, risk, risk_params, budget_mult,
warmstart, monotone, status, wall_time, nodes, fw_iters, objective_max,
return_term, nnz, max_entry, uncertified_leaves (blank numerics on failed
cells). The solve columns are ``SolveReport.to_dict`` fields, with
``fw_iters_total`` written as ``fw_iters``; a grid entry's risk must pass
``model.risk_from_dict``.
Profile CSV columns: solver_config, tau, fraction_solved.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import bnb
from .instances import load_instance
from .model import MeanRiskInstance, risk_from_dict

__all__ = [
    "RECORD_FIELDS",
    "PROFILE_FIELDS",
    "CellConfig",
    "load_grid",
    "epsilon_budget_grid",
    "run_bench",
    "performance_profile",
    "write_records_csv",
    "write_profile_csv",
]

RECORD_FIELDS = [
    "instance",
    "config",
    "risk",
    "risk_params",
    "budget_mult",
    "warmstart",
    "monotone",
    "status",
    "wall_time",
    "nodes",
    "fw_iters",
    "objective_max",
    "return_term",
    "nnz",
    "max_entry",
    "uncertified_leaves",
]

PROFILE_FIELDS = ["solver_config", "tau", "fraction_solved"]


@dataclass
class CellConfig:
    """One solver configuration cell of a benchmark grid."""

    risk: dict
    warmstart: str = bnb.BnbConfig.warmstart.value
    monotone: bool = False
    tol: float = bnb.BnbConfig.tol
    time_limit: float = 600.0
    budget_multiplier: float | None = None  # overrides b := mult * sum(a)
    name: str = ""

    def label(self) -> str:
        if self.name:
            return self.name
        parts = [self.risk.get("kind", "?")]
        parts += [f"{k}{v:g}" for k, v in sorted(self.risk.items()) if k != "kind"]
        if self.budget_multiplier is not None:
            parts.append(f"b{self.budget_multiplier:g}")
        parts.append(self.warmstart)
        if self.monotone:
            parts.append("monotone")
        return "-".join(parts)

    def risk_params(self) -> str:
        return ",".join(f"{k}={v:g}" for k, v in sorted(self.risk.items()) if k != "kind")


def _grid_cell(i: int, entry) -> CellConfig:
    if not isinstance(entry, dict) or not isinstance(entry.get("risk"), dict):
        raise ValueError(f"grid entry {i} must be an object with a 'risk' object")
    unknown = sorted(set(entry) - {f.name for f in dataclasses.fields(CellConfig)})
    if unknown:
        raise ValueError(f"grid entry {i}: unknown key {unknown[0]!r}")
    try:
        risk_from_dict(entry["risk"])
    except ValueError as exc:
        raise ValueError(f"grid entry {i}: {exc}") from None
    return CellConfig(**entry)


def load_grid(path) -> list[CellConfig]:
    """Grid JSON: {"configs": [{"risk": {...}, "warmstart": ..., ...}, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    configs = doc.get("configs")
    if not isinstance(configs, list) or not configs:
        raise ValueError("grid file must contain a nonempty 'configs' array")
    return [_grid_cell(i, entry) for i, entry in enumerate(configs)]


def epsilon_budget_grid(
    epsilons=(0.91, 0.95, 0.99), budget_multipliers=(1.0, 10.0, 100.0)
) -> list[CellConfig]:
    """Standard linear-risk sweep: confidence levels crossed with budgets."""
    return [
        CellConfig(
            risk={"kind": "linear", "epsilon": eps},
            budget_multiplier=mult,
            name=f"eps{eps:g}-b{mult:g}",
        )
        for eps in epsilons
        for mult in budget_multipliers
    ]


def _run_cell(task) -> dict:
    path, cell_dict = task
    cell = CellConfig(**cell_dict)
    record = dict.fromkeys(RECORD_FIELDS, "")
    record.update(
        config=cell.label(),
        risk=cell.risk.get("kind", "?"),
        risk_params=cell.risk_params(),
        budget_mult="" if cell.budget_multiplier is None else cell.budget_multiplier,
        warmstart=cell.warmstart,
        monotone=cell.monotone,
    )
    try:
        inst = load_instance(path)
        record["instance"] = inst.name or str(path)
        if cell.budget_multiplier is not None:
            inst = MeanRiskInstance(
                r=inst.r,
                a=inst.a,
                b=cell.budget_multiplier * float(inst.a.sum()),
                M=inst.M,
                integer_set=inst.integer_set,
                name=inst.name,
            )
        h = risk_from_dict(cell.risk)
        cfg = bnb.BnbConfig(
            warmstart=bnb.WarmstartRule(cell.warmstart),
            monotone=cell.monotone,
            tol=cell.tol,
            time_limit=cell.time_limit,
        )
        report = bnb.solve(inst, h, cfg)
        fields = report.to_dict()
        fields["fw_iters"] = fields.pop("fw_iters_total")
        record.update((k, v) for k, v in fields.items() if k in record)
    except Exception as exc:  # cell failures must not abort the run
        if not record["instance"]:
            record["instance"] = str(path)
        record["status"] = f"error:{type(exc).__name__}"
    return record


def run_bench(instance_paths, cells, jobs: int = 1) -> list[dict]:
    """One record per (instance, config) cell, sorted for determinism."""
    tasks = [
        (str(path), dataclasses.asdict(cell)) for path in instance_paths for cell in cells
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_cell, tasks))
    else:
        records = [_run_cell(task) for task in tasks]
    records.sort(key=lambda rec: (rec["instance"], rec["config"]))
    return records


def performance_profile(records: list[dict]) -> list[dict]:
    """Dolan-More time ratios from the records of one run.

    For each config, the fraction of all instances it solved within tau times
    the fastest solved time for that instance. Unsolved cells are excluded
    from the per-instance minima and never counted solved, so a config with
    failures plateaus below 1. Rows are emitted per config (first-seen order)
    for every breakpoint tau, fractions non-decreasing in tau.
    """
    configs: list[str] = []
    for rec in records:
        if rec["config"] not in configs:
            configs.append(rec["config"])
    instances = sorted({rec["instance"] for rec in records})
    solved = [rec for rec in records if rec["status"] == "optimal"]
    best: dict[str, float] = {}
    for rec in solved:
        t = max(float(rec["wall_time"]), 1e-9)
        best[rec["instance"]] = min(best.get(rec["instance"], t), t)
    ratios: dict[str, list[float]] = {cfg: [] for cfg in configs}
    for rec in solved:
        t = max(float(rec["wall_time"]), 1e-9)
        ratios[rec["config"]].append(t / best[rec["instance"]])
    taus = sorted({1.0} | {ratio for rs in ratios.values() for ratio in rs})
    denom = max(len(instances), 1)
    rows = []
    for cfg in configs:
        rs = sorted(ratios[cfg])
        for tau in taus:
            frac = sum(1 for ratio in rs if ratio <= tau * (1.0 + 1e-12)) / denom
            rows.append({"solver_config": cfg, "tau": tau, "fraction_solved": frac})
    return rows


def write_records_csv(records: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)


def write_profile_csv(rows: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=PROFILE_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
