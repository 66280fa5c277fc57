"""Exact root-system arithmetic for split semisimple Lie algebras.

Everything is plain Python integers, so arithmetic is exact by construction.
Node indices (simple roots, fundamental weights, reflections) are 1-based,
matching the usual Dynkin-diagram numbering.

Type A is the fully supported case; the B/C/D constructors are provided as
extensions and go through the same generic machinery: positive roots come
from a walk up from the simple roots by simple reflections.  Ranks above
``MAX_RANK`` are refused, so every accepted input is small.

A root is a plain tuple of its simple-root coefficients.  Each process walks
a root system once: the walk's output is cached as one packed ``bytes`` per
Cartan matrix, column-major, one byte per coefficient.  The cache is bounded
by ``MAX_RANK``: all 124 A-D systems hold 970,018 bytes.  The sigma-heights
of all positive roots come out of the columns as one ``bytes`` by big-integer
addition, and ``positive_roots``, the one place the columns are unpacked
into coefficient tuples, does so only when it is read.  The root walk, the
Hasse walk, ``reflect`` and ``bgg.affine_act`` reflect by ``_reflect_coords``
over one sparse Cartan table per matrix, cached too (124 take 508,280 bytes).
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple

# A sigma-height is at most the height of the highest root, 2 * MAX_RANK - 1
# = 63 (B and C), so it fits one byte: ``RootSystem.sigma_heights`` adds packed
# byte columns as big integers and no byte ever carries into the next.
MAX_RANK = 32

_SparseColumns = tuple[tuple[tuple[int, int], ...], ...]  # from _sparse_columns


class Weight:
    """An immutable weight in fundamental-weight coordinates, equal only to a
    Weight: not to a WeylWord or a plain tuple with the same entries."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return type(self), (self.coeffs,)


class RootSystem(NamedTuple):
    """A root system given by its Cartan matrix.

    ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
    simple coroot (0-based storage for 1-based nodes).  ``columns`` holds the
    positive roots column-major, one byte per coefficient: column i (0-based)
    is coefficient i of every positive root in the walk's order.  The fields
    are read-only and there is no instance ``__dict__``.
    """

    type_tag: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    columns: bytes

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")

    def _column(self, i: int) -> bytes:
        n = len(self.columns) // self.rank
        return self.columns[i * n:(i + 1) * n]

    @property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """The simple-root coefficients of every positive root in the walk's
        order, unpacked from the columns on each read."""
        return tuple(zip(*map(self._column, range(self.rank))))

    def sigma_heights(self, nodes: Iterable[int]) -> bytes:
        """The sigma-height of every positive root over the 1-based ``nodes``,
        one byte each in the walk's order: the sum of their columns read as
        big integers (no byte carries, see ``MAX_RANK``)."""
        total = 0
        for i in nodes:
            self._check_node(i)
            total += int.from_bytes(self._column(i - 1), "big")
        return total.to_bytes(len(self.columns) // self.rank, "big")


def _cartan_matrix(type_tag: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above the supported maximum {MAX_RANK}")
    if type_tag == "A":
        pass
    elif type_tag in ("B", "C"):
        if rank < 2:
            raise ValueError(f"type {type_tag} needs rank >= 2")
    elif type_tag == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
    else:
        raise ValueError(f"unsupported type tag {type_tag!r}")

    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i: int, j: int) -> None:
        c[i][j] = -1
        c[j][i] = -1

    if type_tag == "D":
        for i in range(rank - 3):
            join(i, i + 1)
        join(rank - 3, rank - 2)
        join(rank - 3, rank - 1)
    else:
        for i in range(rank - 1):
            join(i, i + 1)
        if type_tag == "B":
            c[rank - 1][rank - 2] = -2  # last simple root short
        elif type_tag == "C":
            c[rank - 2][rank - 1] = -2  # last simple root long
    return tuple(tuple(row) for row in c)


@cache
def _sparse_columns(cartan: tuple[tuple[int, ...], ...]) -> _SparseColumns:
    """The nonzero entries (m, C[m][i]) of each Cartan column i, at most
    four: alpha_i in fundamental-weight coordinates.  Kept per Cartan matrix
    like ``_packed_root_columns``, as tuples so the shared value is immutable."""
    return tuple(tuple((m, a) for m, a in enumerate(col) if a) for col in zip(*cartan))


def _reflect_coords(cols: _SparseColumns, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """s_i v = v - v[i] alpha_i for v in fundamental-weight coordinates, with
    ``cols`` from ``_sparse_columns`` and i 0-based."""
    k = v[i]
    out = list(v)
    for m, a in cols[i]:
        out[m] -= k * a
    return tuple(out)


def _enumerate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All positive roots by a walk up from the simple roots.

    A positive root beta that is not simple has k = <beta, alpha_i^vee> > 0
    for some i, and s_i beta = beta - k alpha_i is a lower positive root.  So
    reflecting every root found at each node where its pairing is negative
    reaches them all.  Each root c travels with its pairings p, which are c in
    fundamental-weight coordinates, so ``_reflect_coords`` updates them.
    """
    rank = len(cartan)
    cols = _sparse_columns(cartan)
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    walk = list(zip(simples, zip(*cartan)))
    seen = set(simples)
    for c, p in walk:
        for i, k in enumerate(p):
            if k < 0:
                t = c[:i] + (c[i] - k,) + c[i + 1:]
                if t not in seen:
                    seen.add(t)
                    walk.append((t, _reflect_coords(cols, i, p)))
    return sorted(seen, key=lambda t: (sum(t), t))


@cache
def _packed_root_columns(cartan: tuple[tuple[int, ...], ...]) -> bytes:
    """The walk's positive roots column by column: coefficient i of every
    root in its sorted order, then coefficient i + 1.

    A-D coefficients are at most 2, so each takes one byte; ``bytes`` raises
    on any that would not fit.
    """
    return b"".join(map(bytes, zip(*_enumerate_positive_roots(cartan))))


def build_root_system(type_tag: str, rank: int) -> RootSystem:
    """Construct a root system of the given type and rank.

    Type A is the primary supported family; B, C and D are accepted
    extensions (B/C need rank >= 2, D needs rank >= 3).  Type and rank are
    validated before the cache is read, so a refused input adds no entry.
    The positive roots are walked once per process and kept packed; they
    are unpacked into coefficient tuples only when ``positive_roots`` is read.
    """
    cartan = _cartan_matrix(type_tag, rank)
    return RootSystem(
        type_tag=type_tag,
        rank=rank,
        cartan=cartan,
        columns=_packed_root_columns(cartan),
    )


def reflect(rs: RootSystem, i: int, w: Weight) -> Weight:
    """Simple reflection s_i acting on a weight: w - w[i] * alpha_i, by the
    walk's ``_reflect_coords``."""
    rs._check_node(i)
    if len(w.coeffs) != rs.rank:
        raise ValueError("weight length does not match rank")
    return Weight(_reflect_coords(_sparse_columns(rs.cartan), i - 1, w.coeffs))
