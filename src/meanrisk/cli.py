"""Command-line interface.

Subcommands: solve (branch-and-bound on an instance file), generate (seeded
synthetic instance to JSON), oracle (brute-force reference answer), bench
(grid runs to CSV records + performance profile), check (invariant audit of a
finished solve report against its instance).

Exit codes: 0 success, 1 input/validation error, 2 time limit hit. Instance
and report documents are JSON; '-' means stdin/stdout. Colored log output is
disabled when stderr is not a terminal or NO_COLOR is set.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import sys

import numpy as np

from . import __version__, bench, bnb
from .instances import (
    dumps_instance,
    generate_instance,
    instance_from_dict,
    load_instance,
)
from .model import (
    MeanRiskInstance,
    RiskWeighting,
    objective_max,
    portfolio_summary,
    risk_from_dict,
    solution_checks,
)
from .oracle import EnumerationBudgetExceeded, oracle_solve

log = logging.getLogger("meanrisk")

_RESET = "\x1b[0m"
_COLORS = {logging.WARNING: "\x1b[33m", logging.ERROR: "\x1b[31m"}


class _Formatter(logging.Formatter):
    def __init__(self, color: bool):
        super().__init__("%(levelname)s %(message)s")
        self._color = color

    def format(self, record):
        text = super().format(record)
        code = _COLORS.get(record.levelno)
        if self._color and code:
            return f"{code}{text}{_RESET}"
        return text


def _setup_logging() -> None:
    color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_Formatter(color))
    root = logging.getLogger("meanrisk")
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)


def _read_instance(path: str) -> MeanRiskInstance:
    if path == "-":
        return instance_from_dict(json.load(sys.stdin))
    return load_instance(path)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _risk_from_args(args) -> RiskWeighting:
    given = {
        name: getattr(args, name)
        for name in ("epsilon", "omega", "gamma")
        if getattr(args, name) is not None
    }
    if args.risk == "linear" and len(given) != 1:
        raise ValueError("linear risk needs exactly one of --epsilon or --omega")
    defaults = {"quad": {"omega": 1.0}, "exp": {"gamma": 0.0}}.get(args.risk, {})
    return risk_from_dict({"kind": args.risk, **defaults, **given})


def _add_risk_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--risk", required=True, choices=["linear", "quad", "exp"])
    parser.add_argument("--epsilon", type=float, help="confidence level for linear risk")
    parser.add_argument("--omega", type=float, help="risk weight multiplier")
    parser.add_argument("--gamma", type=float, help="threshold for exp risk")


def _solve_config(args) -> bnb.BnbConfig:
    return bnb.BnbConfig(
        warmstart=bnb.WarmstartRule(args.warmstart),
        monotone=args.monotone,
        tol=args.tol,
        time_limit=args.time_limit,
    )


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    h = _risk_from_args(args)
    report = bnb.solve(inst, h, _solve_config(args))
    doc = report.to_dict()
    doc.update(
        instance=inst.name,
        n=inst.n,
        risk=h.to_dict(),
        warmstart=args.warmstart,
        monotone=args.monotone,
        tol=args.tol,
        time_limit=args.time_limit,
    )
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    if report.uncertified_leaves:
        log.warning(
            "%d continuous leaf relaxation(s) ended without an optimality "
            "certificate; the global result may be conservative",
            report.uncertified_leaves,
        )
    if report.status is bnb.SolveStatus.TIME_LIMIT:
        log.warning("time limit reached; reporting the best solution found")
        return 2
    return 0


def _cmd_generate(args) -> int:
    inst = generate_instance(
        n=args.n,
        integer_fraction=args.int_frac,
        budget_multiplier=args.budget_mult,
        seed=args.seed,
        name=args.name,
    )
    _write_out(dumps_instance(inst, seed=args.seed), args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    h = _risk_from_args(args)
    value, y = oracle_solve(inst, h)
    doc = {
        "instance": inst.name,
        "risk": h.to_dict(),
        "objective_max": value,
        "y": [float(v) for v in y],
    }
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    paths = sorted(glob.glob(args.instances))
    if not paths:
        raise ValueError(f"no instance files match {args.instances!r}")
    cells = bench.load_grid(args.grid)
    records = bench.run_bench(paths, cells, jobs=args.jobs)
    with open(args.out_records, "w", encoding="utf-8", newline="") as fh:
        bench.write_records_csv(records, fh)
    rows = bench.performance_profile(records)
    with open(args.out_profile, "w", encoding="utf-8", newline="") as fh:
        bench.write_profile_csv(rows, fh)
    failed = sum(1 for rec in records if rec["status"] != "optimal")
    log.info("bench: %d records (%d not solved to optimality)", len(records), failed)
    return 0


def _cmd_check(args) -> int:
    inst = _read_instance(args.instance)
    with open(args.report, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    h = risk_from_dict(doc["risk"])
    y = np.asarray(doc["y"], dtype=float)
    obj = float(doc["objective_max"])

    checks = [("status field", doc.get("status") in ("optimal", "time_limit"), "")]
    checks += solution_checks(inst, y)
    labels = ("objective", "return term", "nnz", "max entry")
    results = [(False, "not checked")] * 4
    if checks[2][1]:  # y has full length and finite entries: recompute from it
        value = objective_max(inst, y, h)
        want = portfolio_summary(inst, y)
        ret = want["return_term"]
        results = [
            (
                abs(obj - value) <= 1e-8 * max(1.0, abs(value)),
                f"reported {obj!r} vs recomputed {value!r}",
            ),
            (abs(float(doc["return_term"]) - ret) <= 1e-8 * max(1.0, abs(ret)), ""),
            (int(doc["nnz"]) == want["nnz"], ""),
            (abs(float(doc["max_entry"]) - want["max_entry"]) <= 1e-9, ""),
        ]
    checks += [(f"{label} consistent", *res) for label, res in zip(labels, results)]
    for label, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail and not ok else ""))
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanrisk",
        description="Exact solver for mixed-integer mean-risk knapsack problems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    default = bnb.BnbConfig()
    p = sub.add_parser("solve", help="branch-and-bound solve of an instance file")
    p.add_argument("--instance", default="-", help="instance JSON path ('-' = stdin)")
    _add_risk_flags(p)
    p.add_argument(
        "--warmstart",
        default=default.warmstart.value,
        choices=[rule.value for rule in bnb.WarmstartRule],
    )
    p.add_argument("--monotone", action="store_true", help="disable non-monotone steps")
    p.add_argument("--time-limit", type=float, default=default.time_limit, metavar="S")
    p.add_argument("--tol", type=float, default=default.tol, help="absolute optimality tolerance")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="emit a seeded synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--int-frac", type=float, default=0.5)
    p.add_argument("--budget-mult", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--name")
    p.add_argument("--out", help="write the instance JSON here instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="brute-force reference solve (small instances)")
    p.add_argument("--instance", default="-", help="instance JSON path ('-' = stdin)")
    _add_risk_flags(p)
    p.add_argument("--out", help="write the answer JSON here instead of stdout")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a config grid over instance files")
    p.add_argument("--instances", required=True, help="glob over instance JSON files")
    p.add_argument("--grid", required=True, help="grid JSON file")
    p.add_argument("--out-records", required=True, metavar="CSV")
    p.add_argument("--out-profile", required=True, metavar="CSV")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="audit a solve report against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, EnumerationBudgetExceeded) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
