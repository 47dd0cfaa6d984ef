"""Spans around the calls into each meanrisk layer, recorded from outside.

``Tracer.installed()`` swaps module attributes for timing wrappers and puts
the originals back on exit. Only call sites that look the attribute up at
call time are traced: bnb calls ``fw.origin_optimality_check`` and
``fw.solve_relaxation`` through the module, ``fw.solve_relaxation`` calls its
module-global ``line_search``, and bnb's own globals (``greedy_upper_bound``,
``warmstart_point``, ``minimize``, ``fix_variable``, ``simplex_transform``,
``project_capped_simplex``) are looked up in ``bnb``'s namespace.

A span is (name, start, end, parent, solve id). Line searches run ~10^4
times per solve, so they are not spans: each call adds its count, time and
halvings to the innermost open span, the relaxation that made it.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "counts")

    def __init__(self, name: str, start: float, parent: int, solve: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.solve = solve
        self.counts: dict | None = None

    def count(self, key: str, amount=1) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "solve": self.solve}
        if self.counts:
            out.update(self.counts)
        return out


def _origin_result(span: Span, res) -> None:
    span.count("origin_optimal", int(res.origin_optimal))
    span.count("unconverged", int(not res.converged))


def _relax_result(span: Span, res) -> None:
    span.count("iters", res.iters)
    span.count(res.status.value)


class Tracer:
    """In-memory spans for the solves run while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._solves = 0

    def _targets(self):
        from meanrisk import bnb, fw, instances

        return [
            (instances, "generate_instance", "instances.generate", None),
            (bnb, "solve", "bnb.solve", None),
            (bnb, "greedy_upper_bound", "bnb.greedy", None),
            (bnb, "warmstart_point", "bnb.warmstart", None),
            (bnb, "minimize", "bnb.polish", None),
            (bnb, "fix_variable", "model.fix_variable", None),
            (bnb, "simplex_transform", "model.simplex_transform", None),
            (bnb, "project_capped_simplex", "projection", None),
            (fw, "origin_optimality_check", "fw.origin_check", _origin_result),
            (fw, "solve_relaxation", "fw.relax", _relax_result),
        ]

    @contextlib.contextmanager
    def installed(self):
        from meanrisk import fw

        saved = []
        try:
            for owner, attr, name, on_result in self._targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._span_wrapper(name, fn, on_result))
            saved.append((fw, "line_search", fw.line_search))
            fw.line_search = self._line_search_wrapper(fw.line_search)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _span_wrapper(self, name, fn, on_result):
        spans, open_ = self.spans, self._open
        is_solve = name == "bnb.solve"

        def traced(*args, **kwargs):
            if is_solve:
                self._solves += 1
            in_solve = is_solve or bool(open_)
            span = Span(name, 0.0, open_[-1] if open_ else -1, self._solves if in_solve else 0)
            open_.append(len(spans))
            spans.append(span)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                open_.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def _line_search_wrapper(self, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = spans[open_[-1]]
                span.count("ls_calls")
                span.count("ls_s", _clock() - t0)
            span.count("ls_halvings", result[1])
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans.

        Line searches are not spans, so a relaxation's self time includes them.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit).

        Every ``.s`` is self time; ``fw.line_search.s`` is the part of
        ``fw.relax.s`` spent in line searches.
        """
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(int)
        wall: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            calls[s.name] += 1
            secs[s.name] += own
            wall[s.name] += s.end - s.start
            for key, v in (s.counts or {}).items():
                counts[s.name + ":" + key] += v

        def c(key):
            return counts.get(key, 0)

        relax_calls = calls["fw.relax"]
        relax_wall = wall["fw.relax"]
        ls_calls = c("fw.relax:ls_calls")
        return {
            "fw.origin_check.calls": (calls["fw.origin_check"], "count"),
            "fw.origin_check.s": (secs["fw.origin_check"], "s"),
            "fw.origin_check.unconverged": (c("fw.origin_check:unconverged"), "count"),
            "fw.origin_check.origin_optimal": (c("fw.origin_check:origin_optimal"), "count"),
            "fw.relax.calls": (relax_calls, "count"),
            "fw.relax.s": (secs["fw.relax"], "s"),
            "fw.relax.iters": (c("fw.relax:iters"), "count"),
            "fw.relax.iters_per_s": (_ratio(c("fw.relax:iters"), relax_wall), "iters/s"),
            "fw.relax.optimal": (c("fw.relax:optimal"), "count"),
            "fw.relax.pruned_by_bound": (c("fw.relax:pruned_by_bound"), "count"),
            "fw.relax.iter_limit": (c("fw.relax:iter_limit"), "count"),
            "fw.relax.prune_ratio": (_ratio(c("fw.relax:pruned_by_bound"), relax_calls), "ratio"),
            "fw.line_search.calls": (ls_calls, "count"),
            "fw.line_search.s": (c("fw.relax:ls_s"), "s"),
            "fw.line_search.halvings_per_call": (
                _ratio(c("fw.relax:ls_halvings"), ls_calls), "halvings/call"),
            "bnb.self_s": (secs["bnb.solve"], "s"),
            "bnb.greedy.s": (secs["bnb.greedy"], "s"),
            "bnb.warmstart.calls": (calls["bnb.warmstart"], "count"),
            "bnb.warmstart.s": (secs["bnb.warmstart"], "s"),
            "bnb.polish.calls": (calls["bnb.polish"], "count"),
            "bnb.polish.s": (secs["bnb.polish"], "s"),
            "model.fix_variable.calls": (calls["model.fix_variable"], "count"),
            "model.fix_variable.s": (secs["model.fix_variable"], "s"),
            "model.simplex_transform.calls": (calls["model.simplex_transform"], "count"),
            "model.simplex_transform.s": (secs["model.simplex_transform"], "s"),
            "projection.calls": (calls["projection"], "count"),
            "projection.s": (secs["projection"], "s"),
            "instances.generate.s": (secs["instances.generate"], "s"),
            "trace.solve_s": (wall["bnb.solve"], "s"),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
