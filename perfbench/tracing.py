"""Spans around dccodes functions, recorded from outside the package.

Each hook replaces a function at the name its caller resolves (for example
``dccodes.cyc_dc.poly_divmod``, which ``cyc_dc_decode`` looks up as a module
global) with a wrapper that records a span, and puts the original back on
``uninstall``. Spans are kept in memory; ``write`` saves them as JSON lines.

A span is ``(name, start_ns, end_ns, parent, word, failed, note)``: ``parent``
is the index of the enclosing span or -1, ``word`` is the benchmark's
operation counter when the span opened, ``failed`` says the call returned
``FAIL`` and ``note`` is ``(q, codewords)`` for an exhaustive oracle scan.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

from dccodes.code_core import FAIL

# (module, attribute, span name); the call sites of one function share its name.
HOOKS = (
    ("dccodes.design_dc", "dc_encode", "design_dc.dc_encode"),
    ("dccodes.cli", "dc_encode", "design_dc.dc_encode"),
    ("dccodes.design_dc", "design_decode", "design_dc.design_decode"),
    ("dccodes.weldon", "design_decode", "design_dc.design_decode"),
    ("dccodes.cli", "design_decode", "design_dc.design_decode"),
    ("dccodes.design_dc", "cyclic_mul", "algebra.cyclic_mul"),
    ("dccodes.algebra", "cyclic_mul", "algebra.cyclic_mul"),
    ("dccodes.cyc_dc", "poly_divmod", "algebra.poly_divmod"),
    ("dccodes.cyc_dc", "cyc_dc_decode", "cyc_dc.cyc_dc_decode"),
    ("dccodes.cli", "cyc_dc_decode", "cyc_dc.cyc_dc_decode"),
    ("dccodes.reed_muller", "reed_decode", "reed_muller.reed_decode"),
    ("dccodes.cyc_dc", "shortened_dual_rm_decode", "reed_muller.shortened_dual_rm_decode"),
    ("dccodes.cyc_dc", "punctured_rm_decode", "reed_muller.punctured_rm_decode"),
    ("dccodes.cyc_dc", "build_punctured_rm", "reed_muller.build_punctured_rm"),
    ("dccodes.reed_muller", "build_punctured_rm", "reed_muller.build_punctured_rm"),
    ("dccodes.reed_muller", "generator_from_spanning_set", "cyclic.generator_from_spanning_set"),
    ("dccodes.weldon", "weldon_decode", "weldon.weldon_decode"),
    ("dccodes.cli", "weldon_decode", "weldon.weldon_decode"),
    ("dccodes.weldon", "weldon_membership", "weldon.weldon_membership"),
    ("dccodes.weldon", "quotient_mul", "algebra.quotient_mul"),
    ("dccodes.weldon", "reduce_mod_pk", "algebra.reduce_mod_pk"),
    ("dccodes.algebra", "reduce_mod_pk", "algebra.reduce_mod_pk"),
    ("dccodes.weldon", "bounded_distance_decode", "code_core.bounded_distance_decode"),
    ("dccodes.cli", "brute_force_distance", "code_core.brute_force_distance"),
    ("dccodes.cli", "brute_force_balanced_profile", "code_core.brute_force_balanced_profile"),
    ("dccodes.code_core", "nearest_codeword", "code_core.nearest_codeword"),
    ("dccodes.cli", "load_descriptor", "cli.load_descriptor"),
    ("dccodes.cli", "_cmd_analyze", "cli.analyze"),
    ("dccodes.cli", "_cmd_decode", "cli.decode"),
)

ORACLES = (
    "code_core.brute_force_distance",
    "code_core.brute_force_balanced_profile",
    "code_core.nearest_codeword",
)


class Tracer:
    """Records spans for the hooked functions while installed."""

    def __init__(self, counter):
        # counter() gives the id of the operation a span belongs to
        self.counter = counter
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name: str):
        spans, stack, counter = self.spans, self._stack, self.counter
        oracle = name in ORACLES

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                note = (args[0].q, args[0].q ** args[0].k - 1) if oracle else None
                spans[idx] = (name, start, end, parent, counter(), out is FAIL, note)

        return traced

    def install(self, instance_hooks=()) -> None:
        """Wrap every module hook and the given (object, attribute, name)s."""
        targets = [(importlib.import_module(m), a, n) for m, a, n in HOOKS]
        for owner, attr, name in [*targets, *instance_hooks]:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list, first: int = 0) -> dict:
    """Per span name: calls, fails, self and total ns, oracle scan totals.

    Only spans from index ``first`` on are counted, except ``all_ns``,
    which sums the durations of every span of the name. Self time is a span's duration minus
    the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(int))
    for idx, (name, start, end, parent, word, failed, note) in enumerate(spans):
        agg = out[name]
        agg["all_ns"] += end - start
        if idx < first:
            continue
        agg["calls"] += 1
        agg["fails"] += failed
        agg["total_ns"] += end - start
        agg["self_ns"] += end - start - child_ns[idx]
        if note is not None:
            lane = "gray" if note[0] == 2 else "odometer"
            agg[f"{lane}_cw"] += note[1]
            agg[f"{lane}_ns"] += end - start
    return out


def inside(spans: list, name: str, ancestor: str, first: int = 0) -> int:
    """Total ns of spans called ``name`` that run under a span ``ancestor``."""
    total = 0
    for name_i, start, end, parent, *_ in spans[first:]:
        if name_i != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += end - start
    return total
