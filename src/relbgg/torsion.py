"""Algebraic torsion conditions for descent to local leaf spaces.

Torsion is recorded by its bidegree support: each component consumes two
tangent directions (bidegrees outside q, i.e. with a negative index) and
outputs one.  An output bidegree inside q marks a curvature component that
dies under the projection to the tangent bundle; every predicate below reads
such components, and none can flag one.

The relative directions are exactly the bidegrees (0, i'') with i'' < 0, and
Corollary 3.3 reads the levels i' from -k, the depth of the p-grading, to 0.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .grading import Bidegree, ParabolicPair, _reduce_report, in_q, in_relative_range
from .roots import MAX_RANK, build_root_system


def _valid_bidegree(bd: Bidegree) -> bool:
    return bd.i_prime * bd.i_dprime >= 0


class _ComponentFields(NamedTuple):
    in1: Bidegree
    in2: Bidegree
    out: Bidegree
    tag: str = ""


class TorsionComponent(_ComponentFields):
    """One torsion (or curvature) component; the two inputs are unordered.

    Components sort by (in1, in2, out, tag), the order every report lists them in.
    """

    __slots__ = ()

    def __new__(
        cls, in1: tuple[int, int], in2: tuple[int, int], out: tuple[int, int], tag: str = ""
    ):
        in1, in2 = sorted((Bidegree(*in1), Bidegree(*in2)))
        self = super().__new__(cls, in1, in2, Bidegree(*out), tag)
        for bd in (self.in1, self.in2, self.out):
            if not _valid_bidegree(bd):
                raise ValueError(f"mixed-sign bidegree {tuple(bd)}")
        for bd in (self.in1, self.in2):
            if in_q(bd):
                raise ValueError(
                    f"input bidegree {tuple(bd)} lies inside q and is not a tangent direction"
                )
        return self


class TorsionSupport(NamedTuple):
    components: frozenset[TorsionComponent]
    geometry_tag: str = ""


class TorsionVerdict(NamedTuple):
    ok: bool
    violators: tuple[TorsionComponent, ...]


def involutivity_check(ts: TorsionSupport) -> TorsionVerdict:
    """Relative directions close under bracket iff no component maps two of
    them outside the relative range."""
    bad = [
        c
        for c in ts.components
        if c.out.i_prime < 0 and in_relative_range(c.in1) and in_relative_range(c.in2)
    ]
    return TorsionVerdict(ok=not bad, violators=tuple(sorted(bad)))


def theorem_322_check(ts: TorsionSupport, i_prime: int, strict: bool = False) -> TorsionVerdict:
    """Does torsion keep (relative direction, first index >= i') inside the bundle?

    Non-strict needs output first index >= i'; strict needs >= i' + 1 (the
    condition under which parallel sections are exactly pullbacks).  Every
    component is read, but a curvature output lies in q, so its first index is
    >= 0 and never below the bound, which is at most 0.
    """
    if strict and i_prime >= 0:
        raise ValueError("strict mode needs i_prime < 0")
    if not strict and i_prime > 0:
        raise ValueError("i_prime must be <= 0")
    bound = i_prime + 1 if strict else i_prime
    bad = [
        c
        for c in ts.components
        if c.out.i_prime < bound
        and (
            in_relative_range(c.in1) and c.in2.i_prime >= i_prime
            or in_relative_range(c.in2) and c.in1.i_prime >= i_prime
        )
    ]
    return TorsionVerdict(ok=not bad, violators=tuple(sorted(bad)))


class Corollary33Verdict(NamedTuple):
    part1: bool  # graded leaf-space tangent pieces exist at every level
    part2: bool  # and parallel sections are exactly pullbacks
    involutivity: TorsionVerdict
    per_level: Mapping[int, tuple[bool, bool]]  # i' -> (non-strict ok, strict ok; True at i' = 0)

    __reduce__ = _reduce_report


def corollary_33_check(ts: TorsionSupport, pair: ParabolicPair) -> Corollary33Verdict:
    """Conjunction of the level conditions over i' = -k..0, k the depth of the p-grading:
    part1 non-strict at each, part2 also strict below 0, plus involutivity."""
    inv = involutivity_check(ts)
    per_level = {
        ip: (theorem_322_check(ts, ip).ok, ip == 0 or theorem_322_check(ts, ip, strict=True).ok)
        for ip in range(-max(pair.rs.sigma_heights(pair.sigma_p)), 1)
    }
    non_strict, strict = zip(*per_level.values())  # level 0 is always there
    return Corollary33Verdict(
        part1=all(non_strict),
        part2=inv.ok and all(strict),
        involutivity=inv,
        per_level=MappingProxyType(per_level),
    )


class Geometry(NamedTuple):
    """A catalog pair and its harmonic-curvature torsion support, as ``catalog``
    builds it; the support's ``geometry_tag`` names the catalog."""

    pair: ParabolicPair
    support: TorsionSupport


# kind -> (sigma_q as a function of n, hand-typed rows (in1, in2, out, tag)); every
# catalog kind(n) lives on sl(n+2) with sigma_p = {1}.  legendrean(n), blocks
# 1, n, 1: a contact structure with transverse rank-n distributions E and F,
# whose two torsion rows obstruct involutivity of E and of F (the involutive-F
# hypothesis drops Λ²F*⊗E, so the relative directions integrate); its curvature
# row lands in q.  path-geometry(n), blocks 1, 1, n: a line bundle E and a rank-n
# bundle V; its torsion row never meets two relative directions, its curvature
# row lands in q, and Kostant's Λ²V*⊗(TM/H) is left out because V is assumed
# integrable.  At n = 1 neither gives harmonic-curvature verdicts: E and F are
# line bundles, so the Λ² rows vanish, and A2/B's two harmonic components both
# land in q.
_CATALOGS = {
    "legendrean": (
        lambda n: {1, n + 1},
        (
            ((-1, 0), (-1, 0), (0, -1), "Λ²E*⊗F"),
            ((-1, 0), (0, -1), (0, 0), "E*⊗F*⊗L(E,E)"),
            ((0, -1), (0, -1), (-1, 0), "Λ²F*⊗E"),
        ),
    ),
    "path-geometry": (
        lambda n: {1, 2},
        (
            ((-1, 0), (-1, -1), (0, -1), "E*⊗(TM/H)*⊗V"),
            ((0, -1), (-1, -1), (0, 0), "V*⊗(TM/H)*⊗L(V,V)"),
        ),
    ),
}

_CATALOG_RE = re.compile(r"^([a-z-]+)\((\d+)\)$", re.ASCII)
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def catalog(name: str, assume_involutive_f: bool = False) -> Geometry:
    """Build ``legendrean(n)`` or ``path-geometry(n)``, n in 1..MAX_RANK - 1,
    from its row of ``_CATALOGS``; ``assume_involutive_f`` drops the row that
    hypothesis names and is refused where there is none.  The gaps noted above
    ``_CATALOGS`` stay while ``perfbench/checks.py`` hand-types the same supports."""
    m = _CATALOG_RE.match(name.strip())
    if not m:
        raise ValueError(f"malformed catalog name {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind not in _CATALOGS:
        raise ValueError(f"unknown catalog {kind!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_RANK - 1:
        raise ValueError(
            f"catalog {kind}({n}) needs n <= {MAX_RANK - 1}: "
            f"sl(n+2) has rank n+1, above the supported maximum {MAX_RANK}"
        )
    sigma_q, rows = _CATALOGS[kind]
    drop = {"Λ²F*⊗E"} if assume_involutive_f else set()
    if drop - {row[3] for row in rows}:
        raise ValueError(f"catalog {kind}({n}) has no row for the involutive-F hypothesis to drop")
    rs = build_root_system("A", n + 1)
    pair = ParabolicPair(rs=rs, sigma_q=frozenset(sigma_q(n)), sigma_p=frozenset({1}))
    comps = frozenset(TorsionComponent(*row) for row in rows if row[3] not in drop)
    tag = f"{kind}({n})" + (" involutive-F" if assume_involutive_f else "")
    return Geometry(pair=pair, support=TorsionSupport(comps, tag))


def _bidegree_from_json(value, k: int, key: str) -> list[int]:
    if isinstance(value, list) and len(value) == 2 and all(type(x) is not bool and isinstance(x, int) for x in value):
        return value  # TorsionComponent wraps it
    raise ValueError(f"support component {k} {key} must be a pair of integers, got {value!r}")


def _text_from_json(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"support {what} must be a string")
    if _SURROGATE_RE.search(value):  # no encoding can print a lone surrogate
        raise ValueError(f"support {what} holds a lone surrogate")
    return value


def support_from_json(data) -> TorsionSupport:
    """Deserialize a support from the CLI's JSON schema; ValueError on a bad shape: each component an
    object whose in1, in2 and out are lists of two ints (not bools) and whose optional tag is a string."""
    if not isinstance(data, dict):
        raise ValueError("support JSON must be an object")
    components = data.get("components", [])
    if not isinstance(components, list):
        raise ValueError("support 'components' must be a list")
    geometry_tag = _text_from_json(data.get("geometry_tag", ""), "'geometry_tag'")
    comps = set()
    for k, c in enumerate(components):
        if not isinstance(c, dict):
            raise ValueError(f"support component {k} must be an object")
        bidegrees = {}
        for key in ("in1", "in2", "out"):
            if key not in c:
                raise ValueError(f"support component {k} lacks {key!r}")
            bidegrees[key] = _bidegree_from_json(c[key], k, key)
        tag = _text_from_json(c.get("tag", ""), f"component {k} tag")
        comps.add(TorsionComponent(**bidegrees, tag=tag))
    return TorsionSupport(components=frozenset(comps), geometry_tag=geometry_tag)


def support_to_json(ts: TorsionSupport) -> dict:
    return {
        "components": [
            {
                "in1": list(c.in1),
                "in2": list(c.in2),
                "out": list(c.out),
                "tag": c.tag,
            }
            for c in sorted(ts.components)
        ],
        "geometry_tag": ts.geometry_tag,
    }
