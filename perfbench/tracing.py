"""Spans around the library's layers, recorded from outside the library.

`install` replaces each traced function at every module attribute that holds
it (so `scan.boom_spectrum`, `diff.eval_table`, `predict.make_field` and the
package-level re-exports are covered, not just the defining module) and the
bulk `FieldSpec` methods on the class.  Spans are (name, start, end, parent)
rows kept in memory; `summarize` derives total and self time per name.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import ffbinom
from ffbinom import boom, charsum, cli, diff, family, gf, predict, scan

# (module, function names) whose calls become spans, named "<module>.<name>"
SPANS = (
    (gf, ("make_field",)),
    (family, ("eval_table",)),
    (diff, ("delta_row", "diff_spectrum", "locally_apn_check", "d00_condition")),
    (boom, ("boom_spectrum", "beta_profile")),
    (charsum, ("gamma", "lambda_sum")),
    (predict, ("verify",)),
    (scan, ("scan_exponents",)),
)
# bulk FieldSpec methods, recorded as "gf.<name>"
FIELD_METHODS = ("power_table", "mul_arrays", "add_arrays", "sub_arrays", "outer_diff_hist")
# scalar functions called in tight loops: counted, never timed
COUNTED = ((family, ("evaluate",)),)
# spans whose arguments are kept, for work counts computed after the run
KEEP_ARGS = frozenset({"boom.boom_spectrum"})

_IMPORTERS = (ffbinom, gf, family, diff, boom, charsum, predict, scan, cli)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.args: dict[str, list[tuple]] = defaultdict(list)
        self._stack: list[int] = []

    def take(self) -> tuple[list[list], Counter, dict]:
        """Hand over everything recorded so far and start empty."""
        out = (self.spans, self.counts, self.args)
        self.spans, self.counts, self.args = [], Counter(), defaultdict(list)
        return out

    def span(self, name: str, fn):
        keep_args = name in KEEP_ARGS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            row = [name, perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            if keep_args:
                self.args[name].append(args)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                self._stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever callers look it up.

    Returns the (owner, attribute, original) list that `uninstall` restores.
    """
    undo = []

    def rebind(original, wrapper):
        for module in _IMPORTERS:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    for module, names in SPANS:
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(module, name)
            rebind(original, tracer.span(f"{short}.{name}", original))
    for module, names in COUNTED:
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(module, name)
            rebind(original, tracer.counter(f"{short}.{name}", original))
    for name in FIELD_METHODS:
        original = vars(gf.FieldSpec)[name]
        undo.append((gf.FieldSpec, name, original))
        setattr(gf.FieldSpec, name, tracer.span(f"gf.{name}", original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, summed duration `s`, and `self_s` (minus child spans).

    Spans nest strictly in one thread, so the children of a span cover
    disjoint parts of it and their durations can be subtracted directly.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
    return out


def write_spans(path, phases: dict[str, list[list]]) -> None:
    """One JSON line per span: phase, name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for name, start, end, parent in spans:
                fh.write(json.dumps([phase, name, round(start, 7), round(end, 7), parent]) + "\n")
