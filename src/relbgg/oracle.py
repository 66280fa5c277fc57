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
exactly once, under the bidegree its heights give.  The grading of every
bracket then follows by the Jacobi identity,
[Z, [X, Y]] = [[Z, X], Y] + [X, [Z, Y]], so no commutator is formed.
Humphreys section 1.2; Fulton & Harris, Lecture 15.
"""

from __future__ import annotations

from collections import Counter
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
        return tuple(sum(1 for k in sigma if k > u) for u in range(m))

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
    basis elements per bidegree as well.

    By Jacobi, [X, Y] of homogeneous X and Y sits at the sum of their
    bidegrees, so the per-element check settles every pair of basis
    elements: ``pairs_checked`` counts those (m^2 - 1)^2 pairs.  Nilradical
    raising follows: with X in p_plus, [X, Y] sits at first index
    i'(X) + i'(Y) > i'(Y).
    """
    m = bs.m
    own = {(u, w): bs.bidegree(u, w) for u in range(m) for w in range(m) if u != w}
    # the row of root e_u - e_w (u < w): ones on the nodes u+1..w
    root_entry = {bytes(u) + b"\1" * (w - u) + bytes(m - 1 - w): (u, w) for u, w in own if u < w}
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
    violations = [f"E[{u + 1},{w + 1}]" for (u, w), bd in own.items() if listed.get((u, w)) != bd]
    violations += non_roots

    block_counts = Counter(own.values())
    block_counts[Bidegree(0, 0)] += m - 1  # the Cartan H_i = E_ii - E_{i+1,i+1}
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
