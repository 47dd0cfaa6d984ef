"""Record each workload's universe: reference objective and solve time per cell.

    python3 perfbench/record.py [--out PATH]

Run it on the commit whose answers are the reference (the benchmark's seed
commit) and on an idle machine: the recorded times only rank cells into
strata, but a noisy ranking makes the strata wider. Every workload is
re-recorded. Each cell must pass the answer check (without a reference); the
script stops on the first that does not.
"""

from __future__ import annotations

import argparse
import json
import time

from workloads import SOLVE_TIME_LIMIT_S, UNIVERSE_FILE, WORKLOADS, use_checkout_source


def record(name: str) -> list[dict]:
    """Rows of the workload's universe, one solve per cell."""
    from meanrisk import bnb, instances
    from meanrisk.model import risk_from_dict

    from answer import check_answer

    w = WORKLOADS[name]
    risks = [risk_from_dict(spec) for spec in w.risks]
    cfg = bnb.BnbConfig(time_limit=SOLVE_TIME_LIMIT_S)
    rows = []
    for seed in range(w.instances):
        inst = instances.generate_instance(w.n, w.integer_fraction, w.budget_multiplier, seed=seed)
        for k, h in enumerate(risks):
            t0 = time.perf_counter()
            report = bnb.solve(inst, h, cfg)
            elapsed = time.perf_counter() - t0
            reason = check_answer(inst, h, report, None)
            if reason is not None:
                raise SystemExit(f"{name} seed {seed} risk {k}: {reason}")
            rows.append({"seed": seed, "risk": k, "objective_max": report.objective_max,
                         "solve_s": round(elapsed, 6), "nodes": report.nodes})
    print(f"{name}: {len(rows)} cells recorded", flush=True)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(UNIVERSE_FILE))
    args = ap.parse_args()
    use_checkout_source()
    universe = {name: record(name) for name in sorted(WORKLOADS)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(universe, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
