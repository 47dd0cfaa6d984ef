"""Workload definitions and the seeded, stratified instance pools they draw.

Every workload is a family of ``meanrisk.instances.generate_instance``
instances crossed with one or more risk weightings. A *cell* is one
(instance seed, risk) pair, i.e. one ``bnb.solve`` call.

Branch-and-bound solve times on random instances spread over up to three
orders of magnitude (the origin screen on ``screen`` either converges in a
few steps or runs into its 10k-step cap), so a pool drawn uniformly at random
from ~60 cells gives medians that move by half from one seed to the next.
Each workload therefore has a finite *universe* of cells whose objective and
solve time were recorded once at the seed commit (``universe.json``, written
by ``record.py``). A pass sorts the universe by recorded solve time, splits it
into ``strata`` equal groups and draws one cell from each group with the run
seed. Every seed thus sees a different set of instances, but every pass covers
the whole difficulty range once, which keeps the run-to-run spread small. A
universe is about twenty times the size of a pass, so one run sees about a
twentieth of it; ten runs still see a third or more, so they are not held out
from each other. The recorded objective doubles as the reference answer for
the answer check.

On ``screen`` about 99% of the optima are the origin (the empty portfolio),
so an origin screen that wrongly declared the origin optimal would still pass
most solves. Each run therefore also solves ``probes`` cells whose reference
optimum is not the origin, checks their answers and counts them in
``attempted`` and ``failed``, but leaves them out of the timings: the dozen
such cells take 0.7 to 10 s against a 0.1 s median, so a timed draw among
them would set the spread of the pass time alone.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

_GOLDEN = (5**0.5 - 1.0) / 2.0
UNIVERSE_FILE = Path(__file__).with_name("universe.json")
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# The time limit only guards the benchmark's own run time: the slowest cell
# of any universe took under 6 s at the seed commit.
SOLVE_TIME_LIMIT_S = 60.0


def use_checkout_source() -> None:
    """Import ``meanrisk`` from this checkout's ``src``, on one BLAS thread.

    Must run before numpy is imported. Single-threaded BLAS keeps the run to
    one thread (the matrices are at most 40 x 40, far below OpenBLAS's
    threading threshold anyway) and makes timings steadier.
    """
    if not (SRC_DIR / "meanrisk" / "__init__.py").is_file():
        raise SystemExit(f"meanrisk sources not found under {SRC_DIR}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC_DIR))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    integer_fraction: float
    budget_multiplier: float
    risks: tuple[dict, ...]  # ``meanrisk.model.risk_from_dict`` specs
    instances: int  # universe: instance seeds 0 .. instances - 1
    strata: int  # cells per pass, one drawn from each stratum
    probes: int = 0  # untimed cells per run whose optimum is not the origin


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "screen",
            n=30,
            integer_fraction=0.5,
            budget_multiplier=0.02,
            risks=({"kind": "linear", "epsilon": 0.95}, {"kind": "linear", "epsilon": 0.98}),
            instances=600,
            strata=64,
            probes=3,
        ),
        Workload(
            "tight",
            n=40,
            integer_fraction=0.25,
            budget_multiplier=0.02,
            risks=({"kind": "quad", "omega": 1.0},),
            instances=1400,
            strata=64,
        ),
        Workload(
            "wide",
            n=8,
            integer_fraction=0.5,
            budget_multiplier=1.0,
            risks=({"kind": "quad", "omega": 1.0}, {"kind": "exp", "gamma": 1.0}),
            instances=340,
            strata=40,
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    seed: int  # instance seed passed to generate_instance
    risk: int  # index into the workload's risks
    objective_max: float  # reference answer recorded at the seed commit
    solve_s: float  # solve time recorded at the seed commit


def universe_cells(w: Workload, path: Path = UNIVERSE_FILE) -> list[Cell]:
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)[w.name]
    cells = [Cell(r["seed"], r["risk"], r["objective_max"], r["solve_s"]) for r in rows]
    if len(cells) != w.instances * len(w.risks):
        raise ValueError(f"universe of {w.name!r} has {len(cells)} cells, expected "
                         f"{w.instances * len(w.risks)}")
    return cells


def draw_pass(w: Workload, cells: list[Cell], rng: random.Random) -> list[Cell]:
    """One cell from each of ``w.strata`` solve-time strata.

    The strata are visited in golden-ratio order from a random offset, so a
    pass cut short by the deadline still covers the difficulty range evenly.
    """
    ranked = sorted(cells, key=lambda c: (c.solve_s, c.seed, c.risk))
    bounds = [len(ranked) * k // w.strata for k in range(w.strata + 1)]
    drawn = [rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    offset = rng.random()
    return sorted(drawn, key=lambda c: (offset + drawn.index(c) * _GOLDEN) % 1.0)


def draw_probes(w: Workload, cells: list[Cell], rng: random.Random) -> list[Cell]:
    """``w.probes`` cells whose reference optimum is not the origin."""
    return rng.sample([c for c in cells if c.objective_max != 0.0], w.probes)
