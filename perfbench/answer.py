"""Answer check applied to every solve the benchmark times.

A solve passes when its status is ``optimal``, its portfolio is feasible
(checked here, independently of the solver's own candidate filter), the
reported objective is ``model.objective_max`` at the reported portfolio, and
that objective matches the reference recorded at the seed commit.

Tolerances:

- ``FEAS_TOL`` (1e-9, relative to b for the budget) matches the slack the
  solver allows when it adopts a candidate; anything larger is a real
  violation, not float dust.
- ``OBJ_TOL`` (1e-12 relative) only absorbs a different float evaluation
  order: the solver scores its incumbent with the same formula.
- ``REF_TOL`` (1e-6 relative) is the tolerance the repo's own
  oracle-agreement tests use. Continuous leaves are finished by a local SLSQP
  polish (``ftol`` 1e-14) whose result can move in the last digits with the
  float path, so the reference cannot be bitwise; a wrong optimum (another
  integer fixing, a missed leaf, an infeasible point) differs by far more.
  It is relative to the reference's own size, down to ``REF_FLOOR`` (1e-6,
  below every nonzero reference of the universes, which go down to 3.6e-6
  on ``wide`` and 2.2e-5 on ``screen``): an absolute tolerance would be
  percents of the small optima there. A reference of 0 (the origin is optimal) thus allows
  1e-12, and the objective at the origin is exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

FEAS_TOL = 1e-9
OBJ_TOL = 1e-12
REF_TOL = 1e-6
REF_FLOOR = 1e-6


def check_answer(inst, h, report, reference: float | None) -> str | None:
    """Reason the report fails the answer check, or None when it passes."""
    from meanrisk.model import objective_max

    if report.status.value != "optimal":
        return f"status {report.status.value}"
    y = np.asarray(report.y, dtype=float)
    if y.shape != (inst.n,) or not np.all(np.isfinite(y)):
        return "portfolio has the wrong shape or non-finite entries"
    if float(y.min()) < -FEAS_TOL:
        return f"negative holding {float(y.min())!r}"
    spent = math.fsum(float(p) * float(v) for p, v in zip(inst.a, y))
    if spent > inst.b * (1.0 + FEAS_TOL):
        return f"budget exceeded: a'y = {spent!r} > b = {inst.b!r}"
    for i in inst.integer_set:
        if abs(y[i] - round(y[i])) > FEAS_TOL:
            return f"integer coordinate {i} is {y[i]!r}"
    value = objective_max(inst, y, h)
    if abs(value - report.objective_max) > OBJ_TOL * max(1.0, abs(value)):
        return f"reported objective {report.objective_max!r} != objective_max(y) = {value!r}"
    if reference is not None and abs(report.objective_max - reference) > REF_TOL * max(
        REF_FLOOR, abs(reference)
    ):
        return f"objective {report.objective_max!r} != reference {reference!r}"
    return None
