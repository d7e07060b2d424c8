"""Spans around gfpp's public functions, installed from outside the package.

A traced run replaces each function in TARGETS at the name its callers look
up (a module attribute, or a class attribute for methods) with a wrapper
that records a span: name, start, end, index of the enclosing span, run id
and an optional note.  Spans stay in memory and are written out once, when
the run ends.  `criterion`'s own `lucas_binom` binding gets a counter
instead of a span, because it is called over a million times per run.

The arithmetic that turns spans into per-layer numbers (self_times) lives
here too, so that it can be tested on synthetic span trees.
"""

from __future__ import annotations

import functools
import importlib
import weakref
from time import perf_counter

ROOT_SPAN = "cli.main"


def _girth_note(tracer, name, args, result):
    return "ge8" if result else "lt8"


def _table_note(tracer, name, args, result):
    # Tables are cached on the field, so the first call per field builds one.
    seen = tracer.tables_seen.setdefault(name, weakref.WeakSet())
    fld = args[0]
    if fld not in seen:
        seen.add(fld)
        tracer.counters["field.table_cells"] += len(result) * len(result[0])
    return None


# (module, attribute path, span name, note hook).  The attribute is the name
# each caller looks up: cli calls `criterion.pp_criterion`, permpoly calls
# its own module globals, graphs.girth_scan calls `girth_at_least` from its
# module globals.
TARGETS = (
    ("gfpp.cli", "main", ROOT_SPAN, None),
    ("gfpp.field", "Field.__init__", "field.Field", None),
    ("gfpp.field", "Field.power_table", "field.power_table", _table_note),
    ("gfpp.field", "Field.sub_table", "field.sub_table", _table_note),
    ("gfpp.permpoly", "a_value_table", "permpoly.a_value_table", None),
    ("gfpp.permpoly", "b_value_table", "permpoly.b_value_table", None),
    ("gfpp.permpoly", "is_permutation", "permpoly.is_permutation", None),
    ("gfpp.permpoly", "sweep_record", "permpoly.sweep_record", None),
    ("gfpp.criterion", "pp_criterion", "criterion.pp_criterion", None),
    ("gfpp.criterion", "inverse_pp_criterion", "criterion.inverse_pp_criterion", None),
    ("gfpp.criterion", "support_identity_lhs", "criterion.support_identity_lhs", None),
    ("gfpp.criterion", "support_identity_rhs", "criterion.support_identity_rhs", None),
    ("gfpp.criterion", "upper_half_sum", "criterion.upper_half_sum", None),
    ("gfpp.graphs", "girth_at_least", "graphs.girth_at_least", _girth_note),
    ("gfpp.graphs", "MonomialGraph.monomial_tables", "graphs.monomial_tables", None),
)

# Counted, not spanned: (module, attribute, counter prefix).
COUNTED = (("gfpp.criterion", "lucas_binom", "digits.lucas_binom"),)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, note]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {"field.table_cells": 0}
        self.absent: list[str] = []
        self.tables_seen: dict[str, weakref.WeakSet] = {}

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(self, name, args, result)
            return result

        return wrapper

    def count(self, prefix, fn):
        counters = self.counters
        calls_key, nonzero_key = prefix + ".calls", prefix + ".nonzero"
        counters[calls_key] = counters[nonzero_key] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            counters[calls_key] += 1
            if result:
                counters[nonzero_key] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target that exists; record the others as absent."""
        for module_name, attr, name, note in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            if owner is None:
                self.absent.append(name)
                continue
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), note))
        for module_name, attr, prefix in COUNTED:
            owner, leaf = _resolve(module_name, attr)
            if owner is None:
                self.absent.append(prefix)
                continue
            setattr(owner, leaf, self.count(prefix, getattr(owner, leaf)))

    def dump(self) -> dict:
        """Spans as [name, start, end, parent, run id, note], plus counters."""
        rid = self.run_id
        return {"run_id": rid,
                "spans": [[n, t0, t1, par, rid, note] for n, t0, t1, par, note in self.spans],
                "counters": self.counters, "absent": self.absent}


def _resolve(module_name: str, attr: str):
    """(object holding the final attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, leaf):
        return None, None
    return owner, leaf


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    spans are [name, start, end, parent, ...] with parent the index of the
    enclosing span or -1.  Overlapping children are merged before they are
    subtracted, so a covered instant is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
