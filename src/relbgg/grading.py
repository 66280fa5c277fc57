"""Bigrading, filtration and tangent-rank data for a nested parabolic pair.

A pair of nested parabolic subalgebras q <= p <= g is encoded by two node
sets sigma_p <= sigma_q.  Each root gets a bidegree (i', i'') where i' is
its sigma_p-height and i' + i'' its sigma_q-height; the Cartan sits at
(0, 0).  All derived reports (subalgebra profile, filtration modules,
tangent-bundle subquotient ranks) are pure functions of that decomposition.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, groupby
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .roots import RootSystem


class Bidegree(NamedTuple):
    i_prime: int
    i_dprime: int

    def __neg__(self) -> Bidegree:
        return Bidegree(-self.i_prime, -self.i_dprime)


class _PairFields(NamedTuple):
    rs: RootSystem
    sigma_q: frozenset[int]
    sigma_p: frozenset[int]


class ParabolicPair(_PairFields):
    """Nested node sets sigma_p <= sigma_q inside 1..rank."""

    __slots__ = ()

    def __new__(cls, rs: RootSystem, sigma_q: Iterable[int], sigma_p: Iterable[int]):
        self = super().__new__(cls, rs, frozenset(sigma_q), frozenset(sigma_p))
        for i in self.sigma_q:
            rs._check_node(i)
        if not self.sigma_p <= self.sigma_q:
            raise ValueError(
                f"sigma_p {sorted(self.sigma_p)} is not contained in sigma_q {sorted(self.sigma_q)}"
            )
        return self


def _reduce_report(self):
    """Pickle and copy a report through plain dicts, since a mappingproxy
    cannot be pickled; ``_load_report`` wraps them read-only again."""
    return _load_report, (type(self), *[dict(f) if type(f) is MappingProxyType else f for f in self])


def _load_report(cls, *fields):
    return cls(*[MappingProxyType(f) if type(f) is dict else f for f in fields])


def in_relative_range(bd: Bidegree) -> bool:
    """Whether a bidegree is a relative tangent direction."""
    return bd.i_prime == 0 and bd.i_dprime < 0


def in_q(bd: Bidegree) -> bool:
    """Whether a bidegree lies in q (both indices >= 0)."""
    return bd.i_prime >= 0 and bd.i_dprime >= 0


class RootRows(tuple):
    """One component's roots as ``(negated, positive)``: two tuples of rows,
    one ``bytes`` per positive root and one byte per simple-root coefficient,
    as in ``RootSystem.columns``.  The component lists the negatives of the
    ``negated`` rows, then the ``positive`` rows, ascending as coefficient
    tuples: g_{-bd} holds exactly the negatives of g_{bd}, so ``negated`` is
    the sorted bucket of -bd in reverse, and (0, 0) lists the negated Levi
    roots first."""

    __slots__ = ()


class Bigrading(NamedTuple):
    """Each root space once: ``dims`` maps every bidegree of either sign to the
    dimension of its component (the Cartan counted at (0, 0)), read-only.
    Both indices of a positive root's bidegree are >= 0, and (0, 0) holds
    the roots of the Levi of q."""

    pair: ParabolicPair
    dims: Mapping[Bidegree, int]

    __reduce__ = _reduce_report

    def root_spaces(self) -> dict[Bidegree, RootRows]:
        """The roots of every component packed as ``RootRows``, keyed like
        ``dims``: root k's row is sliced out of the joined ``rs.columns`` as
        every count-th byte from byte k, one pass buckets the rows by packed
        bidegree key, and each bucket is sorted as ``bytes``, which for rows of
        equal length is the order of coefficient tuples.  No root is unpacked
        into a tuple.  ``bigrade --json`` prints them and ``audit`` checks them."""
        columns = self.pair.rs.columns
        flat, count = b"".join(columns), len(columns[0])
        positive: dict[int, list[bytes]] = {}
        for k, key in enumerate(_bidegree_keys(self.pair)):
            positive.setdefault(key, []).append(flat[k::count])
        for bucket in positive.values():
            bucket.sort()
        keys = {bd: 256 * bd.i_prime + bd.i_dprime for bd in self.dims}  # -bd's key is -key; no root's is < 0
        return {bd: RootRows((tuple(positive.get(-key, ())[::-1]), tuple(positive.get(key, ()))))
                for bd, key in keys.items()}

    @property
    def dim_g(self) -> int:
        return sum(self.dims.values())


def _height_strings(pair: ParabolicPair) -> tuple[bytes, bytes]:
    """i' and i'' of every positive root, one byte each in ``RootSystem``'s root order."""
    rs = pair.rs
    return rs.sigma_heights(pair.sigma_p), rs.sigma_heights(pair.sigma_q - pair.sigma_p)


_IP_AT = int(sys.byteorder == "little")  # the high byte of a native 16-bit int


def _bidegree_keys(pair: ParabolicPair) -> memoryview:
    """One key 256 i' + i'' per positive root in root order, whatever the byte
    order: the two height strings interleaved, i' in the high byte (each index
    at most 63, see ``roots.MAX_RANK``)."""
    keys = bytearray(2 * len(pair.rs.columns[0]))
    keys[_IP_AT::2], keys[1 - _IP_AT::2] = _height_strings(pair)
    return memoryview(keys).cast("H")


def bigrade(pair: ParabolicPair) -> Bigrading:
    """Count the positive roots by bidegree, one ``Counter`` pass over their
    packed keys; g_{-bd} has the dimension of g_{bd}."""
    counts = Counter(_bidegree_keys(pair))
    dims = {Bidegree(0, 0): 2 * counts.pop(0, 0) + pair.rs.rank}
    for key, n in counts.items():
        ip, idp = divmod(key, 256)
        dims[Bidegree(ip, idp)] = dims[Bidegree(-ip, -idp)] = n
    return Bigrading(pair=pair, dims=MappingProxyType(dims))


class SubalgebraInfo(NamedTuple):
    bidegrees: tuple[Bidegree, ...]
    dim: int


_SUBALGEBRA_PREDICATES = {
    "p": lambda bd: bd.i_prime >= 0,
    "p_plus": lambda bd: bd.i_prime > 0,
    "p_0": lambda bd: bd.i_prime == 0,
    "q": in_q,
    "q_plus": lambda bd: bd.i_prime + bd.i_dprime > 0,
    "q_0": lambda bd: bd == (0, 0),
}


def subalgebra_profile(bg: Bigrading) -> dict[str, SubalgebraInfo]:
    """Bidegree supports and dimensions of p, p_+, p_0, q, q_+, q_0."""
    out = {}
    every = sorted(bg.dims)
    for name, pred in _SUBALGEBRA_PREDICATES.items():
        bds = tuple(bd for bd in every if pred(bd))
        out[name] = SubalgebraInfo(bidegrees=bds, dim=sum(bg.dims[bd] for bd in bds))
    return out


class ModuleDescriptor(NamedTuple):
    """One graded module V_{i'}, keyed by i', with its second-index filtration step dims."""

    dim: int
    filtration_steps: tuple[tuple[int, int], ...]  # (i'', dim of the image), i'' ascending


class FiltrationReport(NamedTuple):
    components: Mapping[int, tuple[Bidegree, ...]]  # every i', ascending -> bidegrees of the filtration piece
    modules: Mapping[int, ModuleDescriptor]  # the same keys -> V_{i'}

    __reduce__ = _reduce_report


def filtration(bg: Bigrading) -> FiltrationReport:
    """Filtration pieces by first index and the induced graded modules.

    The piece at i' is the sum of all components with first index >= i';
    the module V_{i'} is its quotient by the next piece, filtered by second
    index (the step at i'' is the image of everything with both indices
    >= (i', i''), i.e. the part of V_{i'} with second index >= i'').

    One sort serves every level: each piece is a suffix of the sorted
    bidegrees, each level a run of them and each step a running suffix sum.
    """
    every = tuple(sorted(bg.dims))
    components: dict[int, tuple[Bidegree, ...]] = {}
    modules: dict[int, ModuleDescriptor] = {}
    start = 0
    for ip, run in groupby(every, lambda bd: bd.i_prime):
        level = tuple(run)
        components[ip] = every[start:]
        start += len(level)
        sums = [*accumulate(bg.dims[bd] for bd in reversed(level))][::-1]  # sums[k]: the dims of level[k:]
        steps = tuple(zip([bd.i_dprime for bd in level], sums))
        modules[ip] = ModuleDescriptor(dim=sums[0], filtration_steps=steps)
    return FiltrationReport(MappingProxyType(components), MappingProxyType(modules))


class RankReport(NamedTuple):
    """Ranks of the tangent-bundle subquotients attached to the pair.

    dim_M is the dimension of the underlying space g/q, rank_T_rho the rank
    of the distribution induced by p/q, ranks_T_P the ranks of the larger
    subbundles for negative first index, and ranks_V the quotient ranks,
    which also give the graded pieces of the leaf-space tangent bundle.
    """

    dim_M: int
    rank_T_rho: int
    ranks_T_P: Mapping[int, int]
    ranks_V: Mapping[int, int]

    __reduce__ = _reduce_report


def tangent_ranks(bg: Bigrading) -> RankReport:
    if not bg.pair.sigma_p:
        raise ValueError("tangent ranks need a nonempty sigma_p (no relative directions otherwise)")
    levels: dict[int, int] = {}  # first index -> dim V_{i'}
    for bd, dim in bg.dims.items():
        levels[bd.i_prime] = levels.get(bd.i_prime, 0) + dim
    ranks_v = {ip: levels[ip] for ip in sorted(levels) if ip < 0}
    rank_t_rho = sum(dim for bd, dim in bg.dims.items() if in_relative_range(bd))
    ranks_t_p = {ip: rank_t_rho + sum(r for j, r in ranks_v.items() if j >= ip) for ip in ranks_v}
    # dim M comes from q directly.  No bidegree has i' > 0 > i'', so dim_M =
    # rank_T_rho + sum(ranks_V) by construction; nothing here checks it.
    dim_m = bg.dim_g - sum(dim for bd, dim in bg.dims.items() if in_q(bd))
    return RankReport(
        dim_M=dim_m,
        rank_T_rho=rank_t_rho,
        ranks_T_P=MappingProxyType(ranks_t_p),
        ranks_V=MappingProxyType(ranks_v),
    )
