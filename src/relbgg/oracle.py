"""Brute-force verification of the bigrading through sl(m) matrices.

The combinatorial bidegree assignment is cross-checked against the concrete
realization of sl(m) by elementary matrices.  A node set sigma defines the
diagonal grading element Z_sigma, whose eigenvalue on the u-th basis vector
of C^m is z_u = #{k in sigma : k >= u}; the matrix entry (u, w) then has
sigma-height z_u - z_w.  Z_p and Z_q grade every matrix, and every claim
about the grading becomes a statement about explicit commutators: a
homogeneous [X, Y] satisfies [Z, [X, Y]] = deg * [X, Y] entry by entry.

Matrices are sparse dicts {(u, w): int} of exact Python ints with 0-based
indices; every basis element has at most two entries.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .grading import Bidegree, Bigrading, ParabolicPair

Matrix = dict[tuple[int, int], int]


class BlockStructure(NamedTuple):
    """Eigenvalues of Z_p and Z_q on C^m for a nested pair on type A (0-based)."""

    z_p: tuple[int, ...]
    z_q: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.z_q)

    def bidegree(self, u: int, w: int) -> Bidegree:
        """Bidegree of the matrix entry (u, w) from the two height differences."""
        hp = self.z_p[u] - self.z_p[w]
        return Bidegree(hp, self.z_q[u] - self.z_q[w] - hp)


def block_structure_from_pair(pair: ParabolicPair) -> BlockStructure:
    """Grading elements Z_p and Z_q of sl(rank + 1) for a type-A pair."""
    rs = pair.rs
    if rs.type_tag != "A":
        raise ValueError("matrix realization is only available for type A")
    m = rs.rank + 1

    def eigenvalues(sigma: frozenset[int]) -> tuple[int, ...]:
        return tuple(sum(1 for k in sigma if k > u) for u in range(m))

    return BlockStructure(z_p=eigenvalues(pair.sigma_p), z_q=eigenvalues(pair.sigma_q))


def basis_with_bidegrees(bs: BlockStructure) -> tuple[list[Matrix], list[Bidegree], list[str]]:
    """Basis of sl(m): elementary matrices E_uv plus traceless diagonals.

    Returns the sparse matrices, their bidegrees, and display names.  The
    Cartan part uses H_i = E_ii - E_{i+1,i+1} at bidegree (0, 0).
    """
    m = bs.m
    mats, bidegs, names = [], [], []
    for u in range(m):
        for v in range(m):
            if u != v:
                mats.append({(u, v): 1})
                bidegs.append(bs.bidegree(u, v))
                names.append(f"E[{u + 1},{v + 1}]")
    for i in range(m - 1):
        mats.append({(i, i): 1, (i + 1, i + 1): -1})
        bidegs.append(Bidegree(0, 0))
        names.append(f"H[{i + 1}]")
    return mats, bidegs, names


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """Exact commutator xy - yx of two sparse integer matrices."""
    out: Matrix = {}
    for (u, v), s in x.items():
        for (v2, w), t in y.items():
            if v == v2:
                out[u, w] = out.get((u, w), 0) + s * t
            if w == u:
                out[v2, v] = out.get((v2, v), 0) - s * t
    return {k: c for k, c in out.items() if c}


class OracleReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]
    pairs_checked: int
    dim_mismatches: tuple[str, ...]


def commutator_audit(bs: BlockStructure, bg: Bigrading) -> OracleReport:
    """Exhaustively check [X, Y] against the summed bidegree for all basis pairs.

    Every nonzero entry (u, w) of a commutator must have sigma_p- and
    sigma_q-heights z_u - z_w equal to those summed from the inputs'
    bidegrees, i.e. [Z, [X, Y]] = deg * [X, Y] for Z_p and Z_q.
    Component dimensions of the root picture are compared with the counts of
    basis elements per bidegree as well.  Nilradical raising follows: with
    X in p_plus, [X, Y] sits at first index i'(X) + i'(Y) > i'(Y).
    """
    mats, bidegs, names = basis_with_bidegrees(bs)
    zp, zq = bs.z_p, bs.z_q
    violations = []
    for x, dx, nx in zip(mats, bidegs, names):
        for y, dy, ny in zip(mats, bidegs, names):
            hp = dx.i_prime + dy.i_prime
            hq = hp + dx.i_dprime + dy.i_dprime
            if any(zp[u] - zp[w] != hp or zq[u] - zq[w] != hq for u, w in bracket(x, y)):
                violations.append(f"[{nx},{ny}]")

    block_counts = Counter(bidegs)
    mismatches = []
    for bd in sorted(set(block_counts) | set(bg.components)):
        left = block_counts.get(bd, 0)
        right = bg.dim_component(bd)
        if left != right:
            mismatches.append(f"{tuple(bd)}: block dim {left} vs root dim {right}")

    return OracleReport(
        ok=not violations and not mismatches,
        violations=tuple(violations),
        pairs_checked=len(names) ** 2,
        dim_mismatches=tuple(mismatches),
    )
