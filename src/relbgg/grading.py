"""Bigrading, filtration and tangent-rank data for a nested parabolic pair.

A pair of nested parabolic subalgebras q <= p <= g is encoded by two node
sets sigma_p <= sigma_q.  Each root gets a bidegree (i', i'') where i' is
its sigma_p-height and i' + i'' its sigma_q-height; the Cartan sits at
(0, 0).  All derived reports (subalgebra profile, filtration modules,
tangent-bundle subquotient ranks) are pure functions of that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .roots import Root, RootSystem


class Bidegree(NamedTuple):
    i_prime: int
    i_dprime: int

    def __neg__(self) -> Bidegree:
        return Bidegree(-self.i_prime, -self.i_dprime)


@dataclass(frozen=True)
class ParabolicPair:
    """Nested node sets sigma_p <= sigma_q inside 1..rank."""

    rs: RootSystem
    sigma_q: frozenset[int]
    sigma_p: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_q", frozenset(self.sigma_q))
        object.__setattr__(self, "sigma_p", frozenset(self.sigma_p))
        for i in self.sigma_q:
            self.rs._check_node(i)
        if not self.sigma_p <= self.sigma_q:
            raise ValueError(
                f"sigma_p {sorted(self.sigma_p)} is not contained in sigma_q {sorted(self.sigma_q)}"
            )


@dataclass(frozen=True)
class BigradedComponent:
    degree: Bidegree
    roots: tuple[Root, ...]
    includes_cartan: bool
    dim: int  # len(roots), plus the rank if the Cartan is included


def sigma_height(root: Root, sigma: Iterable[int]) -> int:
    """Sum of the root's coefficients over the nodes in sigma (1-based)."""
    return sum(root.coeffs[i - 1] for i in sigma)


def bidegree_of_root(pair: ParabolicPair, root: Root) -> Bidegree:
    hp = sigma_height(root, pair.sigma_p)
    hq = sigma_height(root, pair.sigma_q)
    return Bidegree(hp, hq - hp)


@dataclass
class Bigrading:
    pair: ParabolicPair
    components: dict[Bidegree, BigradedComponent]

    @property
    def rs(self) -> RootSystem:
        return self.pair.rs

    def bidegrees(self) -> list[Bidegree]:
        return sorted(self.components)

    def dim_component(self, bd: Bidegree) -> int:
        comp = self.components.get(Bidegree(*bd))
        return comp.dim if comp is not None else 0

    @property
    def dim_g(self) -> int:
        return sum(comp.dim for comp in self.components.values())

    def first_index_values(self) -> list[int]:
        return sorted({bd.i_prime for bd in self.components})

    def dim_filtration_piece(self, i_prime: int) -> int:
        """Dimension of the sum of all components with first index >= i_prime."""
        return sum(c.dim for bd, c in self.components.items() if bd.i_prime >= i_prime)


def bigrade(pair: ParabolicPair) -> Bigrading:
    """Assign every signed root its bidegree; the Cartan goes to (0, 0)."""
    rank = pair.rs.rank
    buckets: dict[Bidegree, list[Root]] = {}
    for root in pair.rs.positive_roots:
        bd = bidegree_of_root(pair, root)
        buckets.setdefault(bd, []).append(root)
        buckets.setdefault(-bd, []).append(-root)
    buckets.setdefault(Bidegree(0, 0), [])
    components = {}
    for bd, roots in buckets.items():
        roots.sort(key=lambda r: r.coeffs)
        is_zero = bd == Bidegree(0, 0)
        components[bd] = BigradedComponent(
            degree=bd,
            roots=tuple(roots),
            includes_cartan=is_zero,
            dim=len(roots) + (rank if is_zero else 0),
        )
    return Bigrading(pair=pair, components=components)


@dataclass(frozen=True)
class SubalgebraInfo:
    bidegrees: tuple[Bidegree, ...]
    dim: int


_SUBALGEBRA_PREDICATES = {
    "p": lambda bd: bd.i_prime >= 0,
    "p_plus": lambda bd: bd.i_prime > 0,
    "p_0": lambda bd: bd.i_prime == 0,
    "q": lambda bd: bd.i_prime >= 0 and bd.i_dprime >= 0,
    "q_plus": lambda bd: bd.i_prime + bd.i_dprime > 0,
    "q_0": lambda bd: bd == (0, 0),
}


def subalgebra_profile(bg: Bigrading) -> dict[str, SubalgebraInfo]:
    """Bidegree supports and dimensions of p, p_+, p_0, q, q_+, q_0."""
    out = {}
    for name, pred in _SUBALGEBRA_PREDICATES.items():
        bds = tuple(bd for bd in bg.bidegrees() if pred(bd))
        out[name] = SubalgebraInfo(bidegrees=bds, dim=sum(bg.dim_component(bd) for bd in bds))
    return out


@dataclass(frozen=True)
class ModuleDescriptor:
    """One graded module V_{i'} with its second-index filtration step dims."""

    i_prime: int
    dim: int
    filtration_steps: tuple[tuple[int, int], ...]  # (i'', dim of the image), i'' ascending


@dataclass(frozen=True)
class FiltrationReport:
    i_prime_range: tuple[int, ...]
    components: dict[int, tuple[Bidegree, ...]]  # i' -> bidegrees of the filtration piece
    modules: dict[int, ModuleDescriptor]


def filtration(bg: Bigrading) -> FiltrationReport:
    """Filtration pieces by first index and the induced graded modules.

    The piece at i' is the sum of all components with first index >= i';
    the module V_{i'} is its quotient by the next piece, filtered by second
    index (the step at i'' is the image of everything with both indices
    >= (i', i''), i.e. the part of V_{i'} with second index >= i'').
    """
    values = bg.first_index_values()
    components: dict[int, tuple[Bidegree, ...]] = {}
    modules: dict[int, ModuleDescriptor] = {}
    for ip in values:
        components[ip] = tuple(sorted(bd for bd in bg.components if bd.i_prime >= ip))
        level = sorted(bd for bd in bg.components if bd.i_prime == ip)
        total = sum(bg.dim_component(bd) for bd in level)
        steps = tuple(
            (bd.i_dprime, sum(bg.dim_component(b) for b in level if b.i_dprime >= bd.i_dprime))
            for bd in level
        )
        modules[ip] = ModuleDescriptor(i_prime=ip, dim=total, filtration_steps=steps)
    return FiltrationReport(i_prime_range=tuple(values), components=components, modules=modules)


@dataclass(frozen=True)
class RankReport:
    """Ranks of the tangent-bundle subquotients attached to the pair.

    dim_M is the dimension of the underlying space g/q, rank_T_rho the rank
    of the distribution induced by p/q, ranks_T_P the ranks of the larger
    subbundles for negative first index, and ranks_V the quotient ranks,
    which also give the graded pieces of the leaf-space tangent bundle.
    """

    dim_M: int
    rank_T_rho: int
    ranks_T_P: dict[int, int] = field(default_factory=dict)
    ranks_V: dict[int, int] = field(default_factory=dict)


def tangent_ranks(bg: Bigrading) -> RankReport:
    if not bg.pair.sigma_p:
        raise ValueError("tangent ranks need a nonempty sigma_p (no relative directions otherwise)")
    prof = subalgebra_profile(bg)
    dim_q = prof["q"].dim
    dim_m = bg.dim_g - dim_q
    rank_t_rho = prof["p"].dim - dim_q
    negatives = sorted(ip for ip in bg.first_index_values() if ip < 0)
    ranks_t_p = {ip: bg.dim_filtration_piece(ip) - dim_q for ip in negatives}
    ranks_v = {}
    for ip in negatives:
        above = rank_t_rho if ip + 1 == 0 else ranks_t_p[ip + 1]
        ranks_v[ip] = ranks_t_p[ip] - above
    return RankReport(
        dim_M=dim_m,
        rank_T_rho=rank_t_rho,
        ranks_T_P=ranks_t_p,
        ranks_V=ranks_v,
    )
