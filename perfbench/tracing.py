"""Spans around the public functions of the program's layers, from outside.

``Tracer.patch()`` replaces each function listed in ``LAYERS`` by a wrapper
on *every* jacdecomp module that holds it, because several modules import
functions by name (``cli`` holds ``format_point`` and ``parse_point``,
``constructions`` holds ``decompose``, ``same_curve`` and
``lambda_of_quartic``, ``legendre`` holds ``cross_ratio_lambda``).  A wrapper
records one span per call: name, start, end and the index of its parent
span.  The harness opens a root span named ``op`` around each op, so the
spans of one op form a tree.

Self time of a span is its duration minus the durations of its direct
children; children run inside their parent on one thread and do not
overlap, so the self times of an op's spans sum to the root's duration.
After each op the spans are folded into per-layer totals and dropped, which
keeps memory flat however long the run is.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Per-layer metric group -> functions ("module.attribute" where defined).
LAYERS = {
    "numerics.parse_point": ["numerics.parse_point"],
    "numerics.format_point": ["numerics.format_point"],
    "numerics.cross_ratio_lambda": ["numerics.cross_ratio_lambda"],
    "numerics.solve_quadratic": ["numerics.solve_quadratic"],
    "legendre.same_curve": ["legendre.same_curve"],
    "legendre.s3_orbit": ["legendre.s3_orbit"],
    "legendre.branch_set_pairing": ["legendre.branch_set_pairing"],
    "cover.decompose": ["cover.decompose"],
    "cover.quotient_genus": ["cover.quotient_genus"],
    "cover.fixed_point_count": ["cover.fixed_point_count"],
    "constructions.build": ["constructions.build_genus2", "constructions.build_reducible",
                            "constructions.build_irreducible",
                            "constructions.build_raw_fiber_product"],
    "constructions.solve": ["constructions.solve_mu_genus3", "constructions.solve_mu_chain"],
    "constructions.derive_equations_reducible": ["constructions.derive_equations_reducible"],
    "constructions.check_family": ["constructions.check_genus5_family",
                                   "constructions.check_genus13_family"],
    "constructions.crosscheck": ["constructions.compare_with_reference",
                                 "constructions.sampled_identity_errors",
                                 "constructions.closed_form_constant",
                                 "constructions.reference_system_s3",
                                 "constructions.reference_system_s4"],
    "constructions.factor_lambda_invariant": ["constructions.factor_lambda_invariant"],
    "cli.build_from_args": ["cli.build_from_args"],
    "cli.cmd": ["cli.cmd_construct", "cli.cmd_decompose", "cli.cmd_verify"],
    "cli.emit": ["cli.emit"],
}

# Called once per CLI op and never otherwise, so only their time is reported.
ONCE_PER_OP = {"cli.build_from_args", "cli.cmd", "cli.emit"}

ROOT = "op"
MODULES = ("jacdecomp", "jacdecomp.numerics", "jacdecomp.legendre", "jacdecomp.cover",
           "jacdecomp.constructions", "jacdecomp.cli")


def self_times(spans) -> list[float]:
    """Self time of each span ``(name, start, end, parent)``; parent is an
    index into ``spans`` or None for the root."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.orbit_args: set = set()
        self.ops = 0
        self._patches = self._build_patches()

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def fold(self) -> list:
        """Add the finished op's spans to the per-layer totals; return them."""
        spans, self.spans = self.spans, []
        for (name, _, _, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.self_s[name] += own
        self.counts["legendre.s3_orbit.distinct"] += len(self.orbit_args)
        self.orbit_args.clear()
        self.ops += 1
        return spans

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            before = sys.stdout.tell() if name == "cli.emit" else 0
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if note is not None:
                note(tracer, args, result)
            if name == "cli.emit":
                tracer.counts["cli.emit.bytes"] += sys.stdout.tell() - before
            return result
        traced.__wrapped__ = fn
        return traced

    def _build_patches(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every module that holds
        a listed function."""
        modules = [sys.modules[m] for m in MODULES]
        patches = []
        for group, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                original = getattr(sys.modules["jacdecomp." + module_name], attr)
                wrapper = self._wrap(group, original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            patches.append((module, key, original, wrapper))
        return patches

    def patch(self) -> None:
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def unpatch(self) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a per-op mean over the traced ops."""
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}

        def per_op(value):
            return value / ops

        for group in LAYERS:
            if group not in ONCE_PER_OP:
                out[group + ".calls"] = (per_op(self.calls[group]), "1/op")
            out[group + ".self_s"] = (per_op(self.self_s[group]), "s/op")
        out[ROOT + ".self_s"] = (per_op(self.self_s[ROOT]), "s/op")
        c = self.counts
        functionals = c["cover.decompose.functionals"]
        out["cover.decompose.functionals"] = (per_op(functionals), "1/op")
        out["cover.decompose.factors"] = (per_op(c["cover.decompose.factors"]), "1/op")
        out["cover.decompose.kept_ratio"] = (
            c["cover.decompose.factors"] / functionals if functionals else 0.0, "ratio")
        same = self.calls["legendre.same_curve"]
        out["legendre.same_curve.hit_ratio"] = (
            c["legendre.same_curve.hits"] / same if same else 0.0, "ratio")
        distinct = c["legendre.s3_orbit.distinct"]
        out["legendre.s3_orbit.calls_per_distinct"] = (
            self.calls["legendre.s3_orbit"] / distinct if distinct else 0.0, "ratio")
        out["cli.emit.bytes"] = (per_op(c["cli.emit.bytes"]), "B/op")
        return out


def _note_decompose(tracer: Tracer, args, report) -> None:
    tracer.counts["cover.decompose.functionals"] += (1 << args[0].rank) - 1
    tracer.counts["cover.decompose.factors"] += len(report.factors)


def _note_same_curve(tracer: Tracer, args, hit) -> None:
    tracer.counts["legendre.same_curve.hits"] += bool(hit)


def _note_s3_orbit(tracer: Tracer, args, orbit) -> None:
    tracer.orbit_args.add(args[0])


_NOTES = {
    "cover.decompose": _note_decompose,
    "legendre.same_curve": _note_same_curve,
    "legendre.s3_orbit": _note_s3_orbit,
}
