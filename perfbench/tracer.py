"""Spans around the public entry point of each relbgg layer.

The tracer lives in the benchmark, not in the program: it replaces every
binding of an entry-point function across the loaded ``relbgg.*`` modules
with a wrapper that records a span (name, start, end, parent, request id).
Replacing every binding matters because call sites such as
``from .roots import build_root_system`` hold their own reference.
Hot helpers (``reflect``, ``pairing``, ``bidegree_of_root``) are left alone
so the wrappers do not swamp what they measure.
"""

from __future__ import annotations

import functools
import sys
import time

ENTRY_POINTS = {
    "roots": ("build_root_system",),
    "grading": (
        "bigrade",
        "filtration",
        "tangent_ranks",
        "subalgebra_profile",
        "verify_bracket_additivity",
    ),
    "dynkin": ("parse_label", "validate_label"),
    "bgg": ("relative_hasse", "relative_bgg_sequence"),
    "torsion": ("catalog", "support_from_json", "involutivity_check", "corollary_33_check"),
    "oracle": ("block_structure_from_pair", "commutator_audit", "p_plus_action_audit"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in ENTRY_POINTS.items() for fn in fns)


class Tracer:
    """In-memory span recorder; ``spans`` rows are [name, start_ns, end_ns, parent, request]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.request = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counts_roots = name == "roots.build_root_system"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            row = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
            self.spans.append(row)
            self._stack.append(idx)
            row[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter_ns()
                self._stack.pop()
            if counts_roots:
                built = len(getattr(result, "positive_roots", ()))
                self.counters["roots.roots_built"] = self.counters.get("roots.roots_built", 0) + built
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every entry point that exists; return the names wrapped."""
        modules = [m for n, m in list(sys.modules.items()) if n == "relbgg" or n.startswith("relbgg.")]
        wrapped = []
        for mod, fns in ENTRY_POINTS.items():
            home = sys.modules.get(f"relbgg.{mod}")
            for fn_name in fns:
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(f"{mod}.{fn_name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                wrapped.append(f"{mod}.{fn_name}")
        return wrapped


def self_times(spans: list[list]) -> dict[str, list[int]]:
    """name -> [calls, self_ns]; self time is duration minus direct children's durations.

    Parent indices refer to positions in the same list, so spans from several
    processes must be aggregated per process before merging.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, [0, 0])
        agg[0] += 1
        agg[1] += end - start - child_ns[i]
    return out
