"""Exact root-system arithmetic for split semisimple Lie algebras.

Everything is plain Python integers, so arithmetic is exact by construction.
Node indices (simple roots, fundamental weights, reflections) are 1-based,
matching the usual Dynkin-diagram numbering.

Type A is the fully supported case; the B/C/D constructors are provided as
extensions and go through the same generic machinery: positive roots come
from a walk up from the simple roots by simple reflections, and pairings use
the symmetrizer that the Cartan matrix construction writes alongside it.
Ranks above ``MAX_RANK`` are refused, so every accepted input is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_RANK = 32


@dataclass(frozen=True)
class Root:
    """A root in simple-root coordinates.

    Coefficients are all >= 0 (positive root) or all <= 0 (negative root);
    mixed signs are rejected.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c > 0 for c in self.coeffs) and any(c < 0 for c in self.coeffs):
            raise ValueError(f"mixed-sign coefficients do not form a root: {self.coeffs}")

    @property
    def is_positive(self) -> bool:
        return any(c > 0 for c in self.coeffs)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero coefficients."""
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c != 0)

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates."""

    coeffs: tuple[int, ...]

    def __add__(self, other: Weight) -> Weight:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("weight length mismatch")
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: Weight) -> Weight:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("weight length mismatch")
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


@dataclass(frozen=True)
class RootSystem:
    """A root system given by its Cartan matrix.

    ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
    simple coroot (0-based storage for 1-based nodes).  ``rho`` is the
    half-sum of the positive roots, i.e. the all-ones weight.
    ``symmetrizer`` holds the minimal positive integers d with
    d[i]*C[i][j] == d[j]*C[j][i]; d[i] is proportional to the squared length
    of the i-th simple root, all ones in the simply-laced case.
    """

    type_tag: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    rho: Weight
    symmetrizer: tuple[int, ...]

    @cached_property
    def _root_coeff_set(self) -> frozenset[tuple[int, ...]]:
        pos = {r.coeffs for r in self.positive_roots}
        neg = {tuple(-c for c in cs) for cs in pos}
        return frozenset(pos | neg)

    def is_root(self, coeffs: tuple[int, ...]) -> bool:
        return coeffs in self._root_coeff_set

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (1-based)."""
        self._check_node(i)
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")


def _cartan_matrix(
    type_tag: str, rank: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The Cartan matrix and its symmetrizer (see ``RootSystem``)."""
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
    d = [1] * rank

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
            d = [2] * (rank - 1) + [1]
        elif type_tag == "C":
            c[rank - 2][rank - 1] = -2  # last simple root long
            d[rank - 1] = 2
    return tuple(tuple(row) for row in c), tuple(d)


def _enumerate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All positive roots by a walk up from the simple roots.

    A positive root beta that is not simple has k = <beta, alpha_i^vee> > 0
    for some i, and s_i beta = beta - k alpha_i is a lower positive root.  So
    reflecting every root found at each node where its pairing is negative
    reaches them all.
    """
    rank = len(cartan)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    found = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(found)
    for c in found:
        for i, row in enumerate(rows):
            k = sum(a * c[j] for j, a in row)
            if k < 0:
                t = c[:i] + (c[i] - k,) + c[i + 1:]
                if t not in seen:
                    seen.add(t)
                    found.append(t)
    return sorted(found, key=lambda t: (sum(t), t))


def build_root_system(type_tag: str, rank: int) -> RootSystem:
    """Construct a root system of the given type and rank.

    Type A is the primary supported family; B, C and D are accepted
    extensions (B/C need rank >= 2, D needs rank >= 3).
    """
    cartan, symmetrizer = _cartan_matrix(type_tag, rank)
    positive = tuple(Root(c) for c in _enumerate_positive_roots(cartan))
    return RootSystem(
        type_tag=type_tag,
        rank=rank,
        cartan=cartan,
        positive_roots=positive,
        rho=Weight((1,) * rank),
        symmetrizer=symmetrizer,
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

    Computed as sum_i w[i]*c[i]*d[i] divided by the half squared length of
    beta; in type A this reduces to the sum of w over the support of beta.
    """
    if len(w.coeffs) != rs.rank or len(root.coeffs) != rs.rank:
        raise ValueError("length does not match rank")
    if not root.is_positive or not rs.is_root(root.coeffs):
        raise ValueError(f"{root.coeffs} is not a positive root of {rs.type_tag}{rs.rank}")
    d = rs.symmetrizer
    c = root.coeffs
    num = sum(w.coeffs[i] * c[i] * d[i] for i in range(rs.rank))
    twice_len = sum(
        c[i] * d[i] * sum(rs.cartan[i][j] * c[j] for j in range(rs.rank))
        for i in range(rs.rank)
    )
    if twice_len <= 0 or twice_len % 2:
        raise ArithmeticError(f"bad squared length {twice_len} for root {c}")
    half = twice_len // 2
    q, r = divmod(num, half)
    if r:
        raise ArithmeticError(f"non-integral coroot pairing for root {c}")
    return q
