"""Crossed-Dynkin-diagram labels: a concrete ASCII grammar for highest weights.

A label like ``A4[x,x,o,o](-2,1,0,0)`` carries the diagram type and rank,
one x/o marker per node (x = crossed), and one integer coefficient per node
in the fundamental-weight basis.  Parsing never enforces dominance, so
invalid labels can still be displayed in diagnostics; validity against a
role (P- or Q-representation) is a separate check.
"""

from __future__ import annotations

import re
from typing import Iterable, Literal, NamedTuple

from .grading import ParabolicPair
from .roots import RootSystem, Weight, build_root_system

_LABEL_RE = re.compile(
    r"^([A-Z])(\d+)\[([xo](?:,[xo])*)\]\((-?\d+(?:,-?\d+)*)\)$", re.ASCII
)

Role = Literal["P", "Q"]


class _LabelFields(NamedTuple):
    rs: RootSystem
    crossed: frozenset[int]
    coeffs: Weight


class DynkinLabel(_LabelFields):
    __slots__ = ()

    def __new__(cls, rs: RootSystem, crossed: Iterable[int], coeffs: Weight):
        self = super().__new__(cls, rs, frozenset(crossed), coeffs)
        for i in self.crossed:
            rs._check_node(i)
        if len(coeffs.coeffs) != rs.rank:
            raise ValueError(f"{len(coeffs.coeffs)} coefficients for rank {rs.rank}")
        return self

    def uncrossed_coeffs(self) -> tuple[tuple[int, int], ...]:
        """(node, coefficient) over the uncrossed nodes."""
        return tuple(
            (i, self.coeffs.coeffs[i - 1])
            for i in range(1, self.rs.rank + 1)
            if i not in self.crossed
        )


def parse_label(text: str) -> DynkinLabel:
    """Parse ``TYPE RANK [x|o,...] (int,...)``, e.g. ``A4[x,o,o,o](-2,1,0,0)``."""
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed label {text!r}")
    tag, rank_s, marks_s, coeffs_s = m.groups()
    rank = int(rank_s)
    rs = build_root_system(tag, rank)
    marks = marks_s.split(",")
    coeffs = tuple(int(c) for c in coeffs_s.split(","))
    if len(marks) != rank:
        raise ValueError(f"{len(marks)} node markers for rank {rank} in {text!r}")
    if len(coeffs) != rank:
        raise ValueError(f"{len(coeffs)} coefficients for rank {rank} in {text!r}")
    crossed = frozenset(i + 1 for i, mk in enumerate(marks) if mk == "x")
    return DynkinLabel(rs=rs, crossed=crossed, coeffs=Weight(coeffs))


def label_head(rs: RootSystem, crossed: frozenset[int]) -> str:
    """The part of a label before its coefficients, e.g. ``A4[x,o,o,o]``."""
    marks = ",".join("x" if i in crossed else "o" for i in range(1, rs.rank + 1))
    return f"{rs.type_tag}{rs.rank}[{marks}]"


def print_label(lbl: DynkinLabel, *, head: str | None = None) -> str:
    """``head`` is ``label_head(lbl.rs, lbl.crossed)``, built here unless given."""
    coeffs = ",".join(map(str, lbl.coeffs.coeffs))
    return f"{head or label_head(lbl.rs, lbl.crossed)}({coeffs})"


class LabelVerdict(NamedTuple):
    ok: bool
    negative_uncrossed: tuple[int, ...]  # offending node indices


def validate_label(lbl: DynkinLabel, role: Role, pair: ParabolicPair) -> LabelVerdict:
    """Dominance check for a P- or Q-representation label.

    The crossed set must match the role's node set exactly (that is input
    validation, not a verdict); the verdict is OK iff every uncrossed
    coefficient is nonnegative.
    """
    if role not in ("P", "Q"):
        raise ValueError(f"unknown role {role!r}")
    expected = pair.sigma_p if role == "P" else pair.sigma_q
    if lbl.crossed != expected:
        raise ValueError(
            f"crossed nodes {sorted(lbl.crossed)} do not match the {role}-role set "
            f"{sorted(expected)}"
        )
    bad = tuple(i for i, c in lbl.uncrossed_coeffs() if c < 0)
    return LabelVerdict(ok=not bad, negative_uncrossed=bad)
