"""Print the work each cell of a benchmark pass takes, to diff two checkouts.

    python3 tools/same_work.py --seed 42 > work.jsonl

Solves the first pass that ``perfbench/run.py --seed N`` draws for each
workload, with this checkout's ``src``, and prints one JSON line per cell:
status, nodes, Frank-Wolfe iterations, uncertified leaves and the objective
as a float hex string. Two checkouts did the same work when their outputs
are identical. Each workload's totals of cells, nodes, Frank-Wolfe iterations
and uncertified leaves follow on stderr, one line a workload.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import (  # noqa: E402
    SOLVE_TIME_LIMIT_S,
    WORKLOADS,
    draw_pass,
    universe_cells,
    use_checkout_source,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    use_checkout_source()
    from meanrisk import bnb, instances
    from meanrisk.model import risk_from_dict

    cfg = bnb.BnbConfig(time_limit=SOLVE_TIME_LIMIT_S)
    for name, w in WORKLOADS.items():
        # the first draw of run.Pool's generator is the run's first pass
        cells = draw_pass(w, universe_cells(w), random.Random(f"{name}:{args.seed}"))
        nodes = iters = uncertified = 0
        for cell in cells:
            inst = instances.generate_instance(
                w.n, w.integer_fraction, w.budget_multiplier, seed=cell.seed)
            rep = bnb.solve(inst, risk_from_dict(w.risks[cell.risk]), cfg)
            print(json.dumps({
                "workload": name, "seed": cell.seed, "risk": cell.risk,
                "status": rep.status.value, "nodes": rep.nodes,
                "fw_iters_total": rep.fw_iters_total,
                "uncertified_leaves": rep.uncertified_leaves,
                "objective_max": rep.objective_max.hex(),
            }), flush=True)
            nodes += rep.nodes
            iters += rep.fw_iters_total
            uncertified += rep.uncertified_leaves
        print(f"{name}: {len(cells)} cells, {nodes} nodes, {iters} FW iterations, "
              f"{uncertified} uncertified leaves", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
