"""Brute-force verification of the bigrading through sl(m) matrices.

The combinatorial bidegree assignment is cross-checked against the concrete
realization of sl(m) by elementary matrices.  A node set sigma defines the
diagonal grading element Z_sigma, whose eigenvalue on the u-th basis vector
of C^m is z_u = #{k in sigma : k >= u}; the matrix entry (u, w) then has
sigma-height z_u - z_w.  Z_p and Z_q grade every matrix, and every claim
about the grading becomes a statement about explicit commutators: a
homogeneous [X, Y] satisfies [Z, [X, Y]] = deg * [X, Y] entry by entry.

Matrices are sparse dicts {(u, w): int} of exact Python ints with 0-based
indices; every basis element has at most two entries.  The commutators of
the basis depend on m alone, so each process brackets the basis of sl(m)
once per m: only the pairs whose supports meet, O(m^3) of them (every other
commutator is zero by support), keeping each nonzero entry as six bytes.
The table is bounded by ``MAX_RANK``: all 32 ranks hold 4,019,136 bytes.
An audit then compares entry heights with summed bidegrees, and all
(m^2 - 1)^2 pairs are counted.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cache
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


def _basis(m: int) -> tuple[list[Matrix], list[str]]:
    """Basis of sl(m): elementary matrices E_uv, then H_i = E_ii - E_{i+1,i+1}."""
    offdiag = [(u, v) for u in range(m) for v in range(m) if u != v]
    mats = [{e: 1} for e in offdiag] + [{(i, i): 1, (i + 1, i + 1): -1} for i in range(m - 1)]
    names = [f"E[{u + 1},{v + 1}]" for u, v in offdiag] + [f"H[{i + 1}]" for i in range(m - 1)]
    return mats, names


def _bidegrees(bs: BlockStructure) -> list[Bidegree]:
    """Bidegrees of the basis of ``_basis(bs.m)``; the Cartan part is at (0, 0)."""
    m = bs.m
    offdiag = [bs.bidegree(u, v) for u in range(m) for v in range(m) if u != v]
    return offdiag + [Bidegree(0, 0)] * (m - 1)


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


@cache
def _commutator_table(m: int) -> tuple[array, tuple[str, ...]]:
    """Every nonzero entry of every basis commutator of sl(m), and the basis names.

    The table is a flat ``array('H')`` of triples (i, j, u * m + w), one per
    nonzero entry (u, w) of [X_i, X_j], X-major, Y-minor, six bytes each.
    Only pairs whose supports meet are bracketed: xy is zero unless a row of
    Y is a column of X, and yx unless a column of Y is a row of X, so every
    other [X, Y] is zero by support and cannot violate.  With m <= MAX_RANK + 1
    = 33, every index is below 33² and fits the unsigned short.
    """
    mats, names = _basis(m)
    # basis positions with an entry in each row, and in each column
    with_row: list[list[int]] = [[] for _ in range(m)]
    with_col: list[list[int]] = [[] for _ in range(m)]
    for j, y in enumerate(mats):
        for u, w in y:
            with_row[u].append(j)
            with_col[w].append(j)
    table = array("H")
    for i, x in enumerate(mats):
        for j in sorted({j for u, v in x for js in (with_row[v], with_col[u]) for j in js}):
            for u, w in bracket(x, mats[j]):
                table.extend((i, j, u * m + w))
    return table, tuple(names)


class OracleReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]
    pairs_checked: int
    dim_mismatches: tuple[str, ...]


def commutator_audit(bs: BlockStructure, bg: Bigrading) -> OracleReport:
    """Check [X, Y] against the summed bidegree for every pair of basis elements.

    Every nonzero entry (u, w) of a commutator must have sigma_p- and
    sigma_q-heights z_u - z_w equal to those summed from the inputs'
    bidegrees, i.e. [Z, [X, Y]] = deg * [X, Y] for Z_p and Z_q.
    The commutators depend on m alone, so they come from the per-process
    table of ``_commutator_table``, bracketed once per rank; an audit only
    compares each table entry's heights with the summed bidegree of its pair.
    ``pairs_checked`` counts all (m^2 - 1)^2 pairs, and each violating pair
    is listed once, X-major, Y-minor.
    Component dimensions of the root picture are compared with the counts of
    basis elements per bidegree as well.  Nilradical raising follows: with
    X in p_plus, [X, Y] sits at first index i'(X) + i'(Y) > i'(Y).
    """
    m, zp, zq = bs.m, bs.z_p, bs.z_q
    table, names = _commutator_table(m)
    bidegs = _bidegrees(bs)
    # sigma_p- and sigma_q-heights of each entry position u * m + w and of each basis element
    hp = [zp[u] - zp[w] for u in range(m) for w in range(m)]
    hq = [zq[u] - zq[w] for u in range(m) for w in range(m)]
    dp = [bd.i_prime for bd in bidegs]
    dq = [bd.i_prime + bd.i_dprime for bd in bidegs]
    violations = []
    last = None
    triples = iter(table)
    for i, j, k in zip(triples, triples, triples):
        if (hp[k] != dp[i] + dp[j] or hq[k] != dq[i] + dq[j]) and (i, j) != last:
            last = i, j
            violations.append(f"[{names[i]},{names[j]}]")

    block_counts = Counter(bidegs)
    mismatches = []
    for bd in sorted(set(block_counts) | set(bg.dims)):
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
