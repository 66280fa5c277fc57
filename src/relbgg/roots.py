"""Exact root-system arithmetic for split semisimple Lie algebras.

Everything is plain Python integers, so arithmetic is exact by construction.
Node indices (simple roots, fundamental weights, reflections) are 1-based,
matching the usual Dynkin-diagram numbering.

Type A is the fully supported case; the B/C/D constructors are provided as
extensions and go through the same generic machinery: positive roots come
from a walk up from the simple roots by simple reflections, and a coroot
pairing walks the root back down to a simple root, using Weyl invariance.
Ranks above ``MAX_RANK`` are refused, so every accepted input is small.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

MAX_RANK = 32


class _Coeffs:
    """An immutable integer vector, equal only to a vector of the same type."""

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


class Root(_Coeffs):
    """A root in simple-root coordinates.

    Coefficients are all >= 0 (positive root) or all <= 0 (negative root);
    mixed signs are rejected.
    """

    __slots__ = ()

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
            raise ValueError(f"mixed-sign coefficients do not form a root: {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coeffs))


class Weight(_Coeffs):
    """A weight in fundamental-weight coordinates."""

    __slots__ = ()

    def __add__(self, other: Weight) -> Weight:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("weight length mismatch")
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: Weight) -> Weight:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("weight length mismatch")
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


class _RootSystemFields(NamedTuple):
    type_tag: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    rho: Weight


class RootSystem(_RootSystemFields):
    """A root system given by its Cartan matrix.

    ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
    simple coroot (0-based storage for 1-based nodes).  ``rho`` is the
    half-sum of the positive roots, i.e. the all-ones weight.  The fields are
    read-only and there is no instance ``__dict__``.
    """

    __slots__ = ()

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")


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


def _sparse_rows(cartan: tuple[tuple[int, ...], ...]) -> list[list[tuple[int, int]]]:
    """The nonzero entries (j, C[i][j]) of each Cartan row i."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in cartan]


def _reflections(
    rows: list[list[tuple[int, int]]], c: tuple[int, ...], sign: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(i, s_i c) for each 0-based node i where k = <c, alpha_i^vee> has the
    given sign, with s_i c = c - k alpha_i in simple-root coordinates and
    ``rows`` from ``_sparse_rows``: sign 1 lowers c and sign -1 raises it."""
    for i, row in enumerate(rows):
        k = sum(a * c[j] for j, a in row)
        if k * sign > 0:
            yield i, c[:i] + (c[i] - k,) + c[i + 1:]


def _enumerate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All positive roots by a walk up from the simple roots.

    A positive root beta that is not simple has k = <beta, alpha_i^vee> > 0
    for some i, and s_i beta = beta - k alpha_i is a lower positive root.  So
    reflecting every root found at each node where its pairing is negative
    reaches them all.
    """
    rank = len(cartan)
    rows = _sparse_rows(cartan)
    found = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(found)
    for c in found:
        for _, t in _reflections(rows, c, -1):
            if t not in seen:
                seen.add(t)
                found.append(t)
    return sorted(found, key=lambda t: (sum(t), t))


def build_root_system(type_tag: str, rank: int) -> RootSystem:
    """Construct a root system of the given type and rank.

    Type A is the primary supported family; B, C and D are accepted
    extensions (B/C need rank >= 2, D needs rank >= 3).
    """
    cartan = _cartan_matrix(type_tag, rank)
    positive = tuple(Root(c) for c in _enumerate_positive_roots(cartan))
    return RootSystem(
        type_tag=type_tag,
        rank=rank,
        cartan=cartan,
        positive_roots=positive,
        rho=Weight((1,) * rank),
    )


def root_to_weight(rs: RootSystem, root: Root) -> Weight:
    """Rewrite a root in fundamental-weight coordinates (alpha_i = sum_j C[j][i] omega_j)."""
    if len(root.coeffs) != rs.rank:
        raise ValueError("root length does not match rank")
    return Weight(
        tuple(
            sum(root.coeffs[i] * rs.cartan[j][i] for i in range(rs.rank))
            for j in range(rs.rank)
        )
    )


def reflect(rs: RootSystem, i: int, w: Weight) -> Weight:
    """Simple reflection s_i acting on a weight: w - w[i] * alpha_i."""
    rs._check_node(i)
    if len(w.coeffs) != rs.rank:
        raise ValueError("weight length does not match rank")
    k = w.coeffs[i - 1]
    return Weight(tuple(w.coeffs[j] - k * rs.cartan[j][i - 1] for j in range(rs.rank)))


def pairing(w: Weight, root: Root, rs: RootSystem) -> int:
    """Pairing <w, beta^vee> of a weight against the coroot of a positive root.

    Simple reflections keep the pairing, so beta and w are reflected together
    at a node i with <beta, alpha_i^vee> > 0, which lowers the height, until
    beta is a simple root alpha_j; the pairing is then w[j].  Reflections map
    non-roots to non-roots, so a vector that is not a positive root never
    ends on a simple root and is refused.
    """
    if len(w.coeffs) != rs.rank or len(root.coeffs) != rs.rank:
        raise ValueError("length does not match rank")
    rows = _sparse_rows(rs.cartan)
    c = root.coeffs
    while not (c.count(0) == rs.rank - 1 and 1 in c):
        step = next(_reflections(rows, c, 1), None)
        if step is None:
            raise ValueError(f"{root.coeffs} is not a positive root of {rs.type_tag}{rs.rank}")
        i, c = step
        w = reflect(rs, i + 1, w)
    return w.coeffs[c.index(1)]
