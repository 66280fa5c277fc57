"""Algebraic torsion conditions for descent to local leaf spaces.

Torsion is recorded by its bidegree support: each component consumes two
tangent directions (bidegrees outside q, i.e. with a negative index) and
outputs one.  An output bidegree inside q marks a curvature component that
dies under the projection to the tangent bundle; such components are kept
for bookkeeping but ignored by every predicate below.

The relative directions are exactly the bidegrees (0, i'') with i'' < 0.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .grading import Bidegree, Bigrading, ParabolicPair, in_q, in_relative_range
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

    @property
    def is_torsion(self) -> bool:
        """False for curvature components whose output dies in the tangent projection."""
        return not in_q(self.out)


class TorsionSupport(NamedTuple):
    components: frozenset[TorsionComponent]
    geometry_tag: str = ""

    def torsion_components(self) -> tuple[TorsionComponent, ...]:
        return tuple(sorted(c for c in self.components if c.is_torsion))


class TorsionVerdict(NamedTuple):
    ok: bool
    violators: tuple[TorsionComponent, ...]


def involutivity_check(ts: TorsionSupport) -> TorsionVerdict:
    """Relative directions close under bracket iff no component maps two of
    them outside the relative range."""
    bad = [
        c
        for c in ts.torsion_components()
        if in_relative_range(c.in1) and in_relative_range(c.in2) and c.out.i_prime < 0
    ]
    return TorsionVerdict(ok=not bad, violators=tuple(bad))


def theorem_322_check(ts: TorsionSupport, i_prime: int, strict: bool = False) -> TorsionVerdict:
    """Does torsion keep (relative direction, first index >= i') inside the bundle?

    Non-strict needs output first index >= i'; strict needs >= i' + 1 (the
    condition under which parallel sections are exactly pullbacks).
    """
    if strict and i_prime >= 0:
        raise ValueError("strict mode needs i_prime < 0")
    if not strict and i_prime > 0:
        raise ValueError("i_prime must be <= 0")
    bound = i_prime + 1 if strict else i_prime
    bad = []
    for c in ts.torsion_components():
        for one, other in ((c.in1, c.in2), (c.in2, c.in1)):
            if in_relative_range(one) and other.i_prime >= i_prime:
                if c.out.i_prime < bound:
                    bad.append(c)
                break
    return TorsionVerdict(ok=not bad, violators=tuple(bad))


class Corollary33Verdict(NamedTuple):
    part1: bool  # graded leaf-space tangent pieces exist at every level
    part2: bool  # and parallel sections are exactly pullbacks
    involutivity: TorsionVerdict
    per_level: dict[int, tuple[bool, bool]]  # i' -> (non-strict ok, strict ok or None-as-True)


def corollary_33_check(ts: TorsionSupport, bg: Bigrading) -> Corollary33Verdict:
    """Conjunction of the level conditions: part1 over i' <= 0 non-strict,
    part2 additionally strict over i' < 0 plus involutivity."""
    first = bg.first_index_values()
    lowest = min(first) if first else 0
    inv = involutivity_check(ts)
    per_level = {}
    part1 = True
    part2 = inv.ok
    for ip in range(lowest, 1):
        ok1 = theorem_322_check(ts, ip, strict=False).ok
        ok2 = theorem_322_check(ts, ip, strict=True).ok if ip < 0 else True
        per_level[ip] = (ok1, ok2)
        part1 = part1 and ok1
        if ip < 0:
            part2 = part2 and ok2
    return Corollary33Verdict(
        part1=part1, part2=part2, involutivity=inv, per_level=per_level
    )


class Geometry(NamedTuple):
    """A named pair plus the torsion support of its harmonic curvature."""

    name: str
    pair: ParabolicPair
    support: TorsionSupport


def _catalog_root_system(kind: str, n: int):
    """sl(n+2), the algebra of catalog ``kind(n)``; n runs over 1..MAX_RANK - 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_RANK - 1:
        raise ValueError(
            f"catalog {kind}({n}) needs n <= {MAX_RANK - 1}: "
            f"sl(n+2) has rank n+1, above the supported maximum {MAX_RANK}"
        )
    return build_root_system("A", n + 1)


def legendrean_catalog(n: int, assume_involutive_f: bool = False) -> Geometry:
    """Contact structure with two transverse rank-n integrable-candidate
    distributions E, F; blocks 1, n, 1 on sl(n+2).

    The two first-order torsions obstruct involutivity of E and of F; the
    second-order curvature component lands inside q.  Passing
    ``assume_involutive_f`` drops the F-obstruction, which is the hypothesis
    under which the relative directions integrate.
    """
    rs = _catalog_root_system("legendrean", n)
    pair = ParabolicPair(rs=rs, sigma_q=frozenset({1, n + 1}), sigma_p=frozenset({1}))
    comps = {
        TorsionComponent(
            in1=Bidegree(-1, 0), in2=Bidegree(-1, 0), out=Bidegree(0, -1), tag="Λ²E*⊗F"
        ),
        TorsionComponent(
            in1=Bidegree(-1, 0), in2=Bidegree(0, -1), out=Bidegree(0, 0), tag="E*⊗F*⊗L(E,E)"
        ),
    }
    if not assume_involutive_f:
        comps.add(
            TorsionComponent(
                in1=Bidegree(0, -1), in2=Bidegree(0, -1), out=Bidegree(-1, 0), tag="Λ²F*⊗E"
            )
        )
    support = TorsionSupport(
        components=frozenset(comps),
        geometry_tag=f"legendrean({n})" + (" involutive-F" if assume_involutive_f else ""),
    )
    return Geometry(name=f"legendrean({n})", pair=pair, support=support)


def path_geometry_catalog(n: int) -> Geometry:
    """Rank-(n+1) distribution split into a line bundle E and a rank-n
    bundle V; blocks 1, 1, n on sl(n+2).

    The only torsion-type component consumes one E and one transversal
    direction, so it never touches a pair of relative directions; the other
    harmonic component is curvature and lands inside q.
    """
    rs = _catalog_root_system("path-geometry", n)
    pair = ParabolicPair(rs=rs, sigma_q=frozenset({1, 2}), sigma_p=frozenset({1}))
    comps = frozenset(
        {
            TorsionComponent(
                in1=Bidegree(-1, 0),
                in2=Bidegree(-1, -1),
                out=Bidegree(0, -1),
                tag="E*⊗(TM/H)*⊗V",
            ),
            TorsionComponent(
                in1=Bidegree(0, -1),
                in2=Bidegree(-1, -1),
                out=Bidegree(0, 0),
                tag="V*⊗(TM/H)*⊗L(V,V)",
            ),
        }
    )
    support = TorsionSupport(components=comps, geometry_tag=f"path-geometry({n})")
    return Geometry(name=f"path-geometry({n})", pair=pair, support=support)


_CATALOG_RE = re.compile(r"^([a-z-]+)\((\d+)\)$")


def catalog(name: str, assume_involutive_f: bool = False) -> Geometry:
    """Look up ``legendrean(n)`` or ``path-geometry(n)``."""
    m = _CATALOG_RE.match(name.strip())
    if not m:
        raise ValueError(f"malformed catalog name {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "legendrean":
        return legendrean_catalog(n, assume_involutive_f=assume_involutive_f)
    if kind == "path-geometry":
        return path_geometry_catalog(n)
    raise ValueError(f"unknown catalog {kind!r}")


def _bidegree_from_json(value, where: str) -> Bidegree:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"support {where} must be a pair of integers, got {value!r}")
    return Bidegree(*value)


def support_from_json(data) -> TorsionSupport:
    """Deserialize a support from the CLI's JSON schema; ValueError on a bad shape."""
    if not isinstance(data, dict):
        raise ValueError("support JSON must be an object")
    components = data.get("components", [])
    if not isinstance(components, list):
        raise ValueError("support 'components' must be a list")
    geometry_tag = data.get("geometry_tag", "")
    if not isinstance(geometry_tag, str):
        raise ValueError("support 'geometry_tag' must be a string")
    comps = set()
    for k, c in enumerate(components):
        if not isinstance(c, dict):
            raise ValueError(f"support component {k} must be an object")
        bidegrees = {}
        for key in ("in1", "in2", "out"):
            if key not in c:
                raise ValueError(f"support component {k} lacks {key!r}")
            bidegrees[key] = _bidegree_from_json(c[key], f"component {k} {key}")
        tag = c.get("tag", "")
        if not isinstance(tag, str):
            raise ValueError(f"support component {k} has a non-string tag")
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
