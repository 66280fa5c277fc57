"""Verification of the bigrading through the elementary matrices of sl(m).

The combinatorial bidegree assignment is cross-checked against the concrete
realization of sl(m) by elementary matrices.  A node set sigma defines the
diagonal grading element Z_sigma, whose eigenvalue on the u-th basis vector
of C^m is z_u = #{k in sigma : k >= u}; the matrix entry (u, w) then has
sigma-height z_u - z_w.  Z_p and Z_q grade every matrix.

The basis of sl(m) is homogeneous: [Z, E_uw] = (z_u - z_w) E_uw, and the
Cartan H_i = E_ii - E_{i+1,i+1} commutes with Z.  So the audit checks one
basis element at a time against the engine's root listing: E_uw with
0-based u < w is the root vector of e_u - e_w, the root with ones on the
1-based nodes u+1..w, and E_wu that of its negative.  Each must be listed
exactly once, under the bidegree its heights give.  Heights depend only on
eigenvalues, so the audit reads one bidegree per pair of blocks (runs of equal
(z_p, z_q)), and counts basis elements per bidegree from the block sizes.
The grading of every bracket then follows by the Jacobi identity,
[Z, [X, Y]] = [[Z, X], Y] + [X, [Z, Y]], so no commutator is formed.
Humphreys section 1.2; Fulton & Harris, Lecture 15.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import NamedTuple

from .grading import Bidegree, Bigrading, ParabolicPair


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
        # z_u = z_{u+1} + [u+1 in sigma], counted up from z_{m-1} = 0
        return tuple(accumulate((k in sigma for k in range(m - 1, 0, -1)), initial=0))[::-1]

    return BlockStructure(z_p=eigenvalues(pair.sigma_p), z_q=eigenvalues(pair.sigma_q))


class OracleReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]
    pairs_checked: int
    dim_mismatches: tuple[str, ...]


def commutator_audit(bs: BlockStructure, bg: Bigrading) -> OracleReport:
    """Check every root vector of sl(m) against the bidegree the engine lists.

    Each row of ``bg.root_spaces()`` must be a type-A root e_u - e_w (u < w),
    its coefficients ones on the nodes u+1..w; a row of the ``negated`` half
    stands for E_wu, one of the positive half for E_uw.  Every E_uw with
    u != w must be listed exactly once, under ``bs.bidegree(u, w)``.  Each
    violating element is listed once, in row-major order, as E[u,w]
    (1-based), followed by the coefficients of every row that is no root.
    Component dimensions of the root picture are compared with the counts of
    basis elements per bidegree as well.  A block is a run of equal (z_p[u],
    z_q[u]): ``bs.bidegree`` is read once per pair of blocks, and the counts
    come from the block sizes.

    By Jacobi, [X, Y] of homogeneous X and Y sits at the sum of their
    bidegrees, so the per-element check settles every pair of basis
    elements: ``pairs_checked`` counts those (m^2 - 1)^2 pairs.  Nilradical
    raising follows: with X in p_plus, [X, Y] sits at first index
    i'(X) + i'(Y) > i'(Y).
    """
    m = bs.m
    sizes = [len(list(run)) for _, run in groupby(zip(bs.z_p, bs.z_q))]
    starts = list(accumulate(sizes, initial=0))[:-1]
    block = [a for a, size in enumerate(sizes) for _ in range(size)]
    table = [[bs.bidegree(start, other) for other in starts] for start in starts]
    # the row of root e_u - e_w (u < w), ones on the nodes u+1..w: a slice of w - u padded ones
    runs = [bytes(m - 1) + b"\1" * d + bytes(m - 1) for d in range(m)]
    root_entry = {runs[w - u][m - 1 - u : 2 * m - 2 - u]: (u, w) for u in range(m) for w in range(u + 1, m)}
    listed = {}  # (u, w) -> the bidegree E_uw is listed under, None once listed twice
    non_roots = []
    for bd, (negated, positive) in bg.root_spaces().items():
        for sign, rows in (("-", negated), ("", positive)):
            for row in rows:
                entry = root_entry.get(row)
                if entry is None:
                    non_roots.append(f"{sign}{tuple(row)}")
                    continue
                entry = entry[::-1] if sign else entry
                listed[entry] = None if entry in listed else bd
    violations = [f"E[{u + 1},{w + 1}]" for u, a in enumerate(block) for w, c in enumerate(block)
                  if u != w and listed.get((u, w)) != table[a][c]]
    violations += non_roots

    # the Cartan H_i = E_ii - E_{i+1,i+1}, then the E_uw with u != w of each block pair
    block_counts = {Bidegree(0, 0): m - 1}
    for a, size in enumerate(sizes):
        for c, other in enumerate(sizes):
            block_counts[table[a][c]] = block_counts.get(table[a][c], 0) + size * (other - (a == c))
    mismatches = []
    for bd in sorted(set(block_counts) | set(bg.dims)):
        left = block_counts.get(bd, 0)
        right = bg.dim_component(bd)
        if left != right:
            mismatches.append(f"{tuple(bd)}: block dim {left} vs root dim {right}")

    return OracleReport(
        ok=not violations and not mismatches,
        violations=tuple(violations),
        pairs_checked=(m * m - 1) ** 2,
        dim_mismatches=tuple(mismatches),
    )
