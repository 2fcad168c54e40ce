"""Spans and counts taken from outside the program.

`Tracer.install` replaces the listed functions of the loewy modules with
wrappers, at every name they are bound to (a function imported by name into
another module is a second binding), and `Tracer.remove` puts the originals
back.  Each wrapped call records a span (name, start, end, parent) in memory;
`self_times` turns the spans into per-name self time once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _table_bytes(args, result):
    alg = args[0]
    return {"algebra.table_bytes": alg.z * alg.nu * 8}


def _profile_counts(args, result):
    return {"algebra.basis": len(result.lam) - 1,
            "algebra.irreducibles": len(result.irreducibles)}


def _key_count(args, result):
    return {"database.keys": len(result)}


def _jsonl_bytes(args, result):
    return {"database.jsonl_bytes": len(result) + 1}


# (module, attribute path, metric name, extra counts or None).  Spans get
# "<name>.self_s" and "<name>.calls".  `Algebra.__init__` builds the residue
# table; `Algebra._compute_profile` is the Loewy DP behind `loewy_profile`.
SPANNED = (
    ("loewy.cli", "main", "cli.main", None),
    ("loewy.database", "subgroup_representatives", "database.subgroup_representatives", _key_count),
    ("loewy.database", "compute_record", "database.compute_record", None),
    ("loewy.database", "scan_to_file", "database.scan_to_file", None),
    ("loewy.database", "DbRecord.to_json_line", "database.to_json_line", _jsonl_bytes),
    ("loewy.database", "write_csv", "database.write_csv", None),
    ("loewy.database", "load_records", "database.load_records", None),
    ("loewy.database", "stats", "database.stats", None),
    ("loewy.database", "isomorphism_screen", "database.isomorphism_screen", None),
    ("loewy.algebra", "Algebra.__init__", "algebra.Algebra", _table_bytes),
    ("loewy.algebra", "Algebra._compute_profile", "algebra.loewy_profile", _profile_counts),
    ("loewy.algebra", "Algebra.flags", "algebra.flags", None),
    ("loewy.algebra", "same_table", "algebra.same_table", None),
    ("loewy.algebra", "validity_table", "algebra.validity_table", None),
    ("loewy.mfunc", "m_via_z", "mfunc.m_via_z", None),
    ("loewy.mfunc", "m_value", "mfunc.m_value", None),
    ("loewy.mfunc", "m_closed_form", "mfunc.m_closed_form", None),
    ("loewy.mfunc", "m_bfs", "mfunc.m_bfs", None),
    ("loewy.mfunc", "m_groups_by_generator", "mfunc.m_groups_by_generator", None),
    ("loewy.invariants", "invariant_report", "invariants.invariant_report", None),
    ("loewy.invariants", "set_product", "invariants.set_product", None),
    ("loewy.invariants", "socle_series", "invariants.socle_series", None),
    ("loewy.invariants", "frobenius", "invariants.frobenius", None),
    ("loewy.arith", "mult_order", "arith.mult_order", None),
)

# Called hundreds of thousands of times per screen: counted, never spanned,
# so their time stays in the caller's self time.
COUNTED = (
    ("loewy.algebra", "Algebra.product_index", "algebra.product_index"),
)

def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans as (name, start, end, parent index) and named counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, extra=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            counts[calls] += 1
            if extra is not None:
                counts.update(extra(args, result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every binding in the loewy modules."""
        importlib.import_module("loewy.cli")  # imports every module that binds a name
        modules = [mod for name, mod in sys.modules.items()
                   if name == "loewy" or name.startswith("loewy.")]
        for module_name, path, name, extra in SPANNED:
            self._wrap(modules, module_name, path, functools.partial(self.span, name, extra=extra))
        for module_name, path, name in COUNTED:
            self._wrap(modules, module_name, path, functools.partial(self.counter, name))

    def _wrap(self, modules, module_name, path, make) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        self._patch(owner, attr, wrapped)
        if owner is sys.modules[module_name]:  # a module-level function
            for mod in modules:
                if mod is not owner and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


def root_time(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
