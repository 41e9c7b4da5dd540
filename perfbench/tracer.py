"""In-memory spans around the public calls of each ordercert layer.

The benchmark wraps library functions from outside; nothing in ``src/`` knows
about tracing.  A wrapper replaces every binding of a function in every loaded
``ordercert`` module (``cli`` and ``orderlogic.facts`` import names such as
``check_derivation`` and ``equal_or_unknown`` at import time, so wrapping only
the defining module would silently count nothing), and methods are wrapped on
their class.

Only calls made inside an operation (a root span the benchmark opens) are
recorded; the benchmark's own output checks run outside any and are not.
Each wrapped call pushes a frame holding its start time and the time its
traced children took, so self time is the call's duration minus its children.
Span calls also append a record (id, name, start, end, parent, operation);
the hottest calls -- PL point evaluation and ``apply`` on skew elements and
plane words -- only add to their call and time totals, because a record per
call would dominate the run.  Records stay in memory until ``export``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from array import array
from time import perf_counter

# Counters that combine by maximum when traces are merged; all others add.
MAX_COUNTERS = ("exactpl.breakpoints.max", "exactpl.denominator_bits.max")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # call aggregates: name -> [calls, self seconds, total seconds]
        self.agg: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        # span records, one column per field
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [start, child seconds, span id]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self) -> list:
        sid = self._next_id
        self._next_id += 1
        frame = [perf_counter(), 0.0, sid]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name: str, record: bool = True) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        duration = t1 - frame[0]
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration - frame[1]
        agg[2] += duration
        if stack:
            stack[-1][1] += duration
        if record:
            self.span_id.append(frame[2])
            self.span_name.append(self._name_id(name))
            self.span_start.append(frame[0])
            self.span_end.append(t1)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_op.append(self.op)

    def exclude(self, seconds: float) -> None:
        """Charge tracer bookkeeping to no layer: the enclosing span's self
        time does not include it."""
        if self._stack:
            self._stack[-1][1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_max(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def calls(self, name: str) -> int:
        agg = self.agg.get(name)
        return agg[0] if agg else 0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, record=True, after=None):
        """A wrapper timing ``fn`` under ``name`` (a string, or a function of
        the call's arguments).  ``after(result, args)`` runs outside the
        timed region and is excluded from every layer."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside any operation: the benchmark's own checks
                return fn(*args, **kwargs)
            frame = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame, name if isinstance(name, str) else name(args), record)
            if after is not None:
                t0 = perf_counter()
                after(result, args)
                tracer.exclude(perf_counter() - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_method(self, cls, attr: str, wrapper_of) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(wrapper_of(original.__func__))
        else:
            replacement = wrapper_of(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, fn, wrapper) -> None:
        """Replace every binding of ``fn`` in every loaded ordercert module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ordercert" or modname.startswith("ordercert.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "agg": {k: list(v) for k, v in self.agg.items()},
            "counters": dict(self.counters),
            "spans": [
                self.span_id, self.span_name, self.span_start,
                self.span_end, self.span_parent, self.span_op,
            ],
        }

    def merge(self, data: dict, op: int) -> None:
        """Fold a child's ``export`` into this tracer, re-numbering its spans
        and tagging them with operation ``op``."""
        for name, (calls, self_s, total) in data["agg"].items():
            agg = self.agg.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += total
        for name, value in data["counters"].items():
            if name in MAX_COUNTERS:
                self.count_max(name, value)
            else:
                self.count(name, value)
        ids, names, starts, ends, parents, _ = data["spans"]
        offset = self._next_id
        remap = [self._name_id(n) for n in data["names"]]
        self.span_id.extend(i + offset for i in ids)
        self.span_name.extend(remap[n] for n in names)
        self.span_start.extend(starts)
        self.span_end.extend(ends)
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in parents)
        self.span_op.extend(op for _ in ids)
        self._next_id += max(ids) + 1 if len(ids) else 0

    def write(self, path) -> None:
        """Write every span as one JSON line per span, after the run."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.span_id, self.span_name, self.span_start,
                           self.span_end, self.span_parent, self.span_op):
                sid, nid, start, end, parent, op = row
                handle.write(json.dumps({
                    "id": sid, "name": self.names[nid], "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# -- the layers --------------------------------------------------------------

def _element_size(tracer: Tracer, result, _args) -> None:
    xs, ys = result.xs, result.ys
    tracer.count_max("exactpl.breakpoints.max", len(xs))
    bits = max(max(q.denominator.bit_length() for q in xs),
               max(q.denominator.bit_length() for q in ys))
    tracer.count_max("exactpl.denominator_bits.max", bits)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer.  Call after importing
    ``ordercert.cli`` so every module that binds a wrapped name is loaded."""
    exactpl = importlib.import_module("ordercert.exactpl")
    skew = importlib.import_module("ordercert.skew")
    plane = importlib.import_module("ordercert.plane")
    wordsyntax = importlib.import_module("ordercert.wordsyntax")
    certs = importlib.import_module("ordercert.certs")
    derivation = importlib.import_module("ordercert.orderlogic.derivation")
    facts = importlib.import_module("ordercert.orderlogic.facts")
    rules = importlib.import_module("ordercert.orderlogic.rules")
    scripts = importlib.import_module("ordercert.orderlogic.scripts")

    def sized(name):
        return lambda fn: tracer.wrap(fn, name, after=lambda r, a: _element_size(tracer, r, a))

    # exactpl: kernel operations, and point evaluation counted without spans
    tracer.patch_method(exactpl.PLMap, "compose", sized("exactpl.compose"))
    tracer.patch_method(exactpl.PLMap, "invert", sized("exactpl.invert"))
    tracer.patch_method(exactpl.PLCocycle, "pullback", sized("exactpl.pullback"))
    tracer.patch_method(exactpl.PLCocycle, "add", sized("exactpl.add"))
    tracer.patch_method(exactpl.PLCocycle, "negate", sized("exactpl.negate"))
    tracer.patch_method(exactpl.PLMap, "from_points", sized("exactpl.from_points"))
    tracer.patch_method(exactpl.PLCocycle, "from_points", sized("exactpl.from_points"))
    tracer.patch_method(exactpl._PLBase, "__call__",
                        lambda fn: tracer.wrap(fn, "exactpl.eval", record=False))

    # skew
    for attr in ("compose", "invert", "power", "conjugate"):
        tracer.patch_method(skew.SkewElement, attr,
                            lambda fn, n=f"skew.{attr}": tracer.wrap(fn, n))
    tracer.patch_method(skew.SkewElement, "apply",
                        lambda fn: tracer.wrap(fn, "skew.apply", record=False))
    for fn, name in ((skew.word_to_element, "skew.word_to_element"),
                     (skew.verify_relations, "skew.verify_relations"),
                     (plane.verify_mirrored_relations, "plane.verify_mirrored_relations"),
                     (wordsyntax.parse_word, "wordsyntax.parse_word"),
                     (scripts.script_theorem_main, "orderlogic.script_theorem_main"),
                     (certs.serialize_derivation, "certs.serialize_derivation"),
                     (certs.canonical_dumps, "certs.canonical_dumps"),
                     (certs.read_certificate, "certs.read_certificate"),
                     (certs.parse_derivation, "certs.parse_derivation")):
        tracer.patch_function(fn, tracer.wrap(fn, name))

    # plane: word construction with letters in and out of simplification
    def init_wrapper(fn):
        def traced_init(self, letters=()):
            if not tracer._stack:
                return fn(self, letters)
            frame = tracer.begin()
            try:
                letters = tuple(letters)
                fn(self, letters)
            finally:
                tracer.end(frame, "plane.word")
            tracer.count("plane.letters_in", len(letters))
            tracer.count("plane.letters_out", len(self.letters))

        return traced_init

    tracer.patch_method(plane.PlaneWord, "__init__", init_wrapper)
    tracer.patch_method(plane.PlaneWord, "apply",
                        lambda fn: tracer.wrap(fn, "plane.apply", record=False))

    def decide(fn):
        wrapped = tracer.wrap(fn, "plane.equal_or_unknown")

        def traced_decide(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            applies = tracer.calls("plane.apply")
            verdict = wrapped(*args, **kwargs)
            points = (tracer.calls("plane.apply") - applies) // 2
            tracer.count("plane.points_tried", points)
            tracer.count(f"plane.verdict.{verdict.status}")
            if points and verdict.status == "distinct":
                tracer.count("plane.decided_by_search")
            return verdict

        return traced_decide

    tracer.patch_function(plane.equal_or_unknown, decide(plane.equal_or_unknown))

    # orderlogic: fact verification per fact, rule checks, the derivation checker
    tracer.patch_method(facts.AtomTable, "verify_all",
                        lambda fn: tracer.wrap(fn, "orderlogic.verify_all"))
    tracer.patch_method(facts.AtomTable, "verify_fact",
                        lambda fn: tracer.wrap(
                            fn, lambda args: f"orderlogic.verify_fact.{args[1].id}"))

    checking = [0]

    def rule(fn):
        wrapped = tracer.wrap(fn, "orderlogic.apply_rule")

        def traced_rule(*args, **kwargs):
            if checking[0] and tracer._stack:
                tracer.count("orderlogic.steps")
            return wrapped(*args, **kwargs)

        return traced_rule

    tracer.patch_function(rules.apply_rule, rule(rules.apply_rule))

    def check(fn):
        wrapped = tracer.wrap(fn, "orderlogic.check_derivation")

        def traced_check(deriv, *args, **kwargs):
            if not tracer._stack:
                return fn(deriv, *args, **kwargs)
            checking[0] += 1
            try:
                return wrapped(deriv, *args, **kwargs)
            finally:
                checking[0] -= 1
                t0 = perf_counter()
                tracer.count("orderlogic.branches", deriv.count_branches())
                tracer.exclude(perf_counter() - t0)

        return traced_check

    tracer.patch_function(derivation.check_derivation, check(derivation.check_derivation))

    def write(fn):
        wrapped = tracer.wrap(fn, "certs.write_certificate")

        def traced_write(path, certificate):
            if not tracer._stack:
                return fn(path, certificate)
            wrapped(path, certificate)
            t0 = perf_counter()
            tracer.count("certs.bytes_written", os.path.getsize(path))
            tracer.exclude(perf_counter() - t0)

        return traced_write

    tracer.patch_function(certs.write_certificate, write(certs.write_certificate))
