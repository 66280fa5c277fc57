"""Matrix-oracle checks: the block picture must agree with the root picture."""

import ast
import itertools
from collections import Counter
from pathlib import Path

import pytest
from common import all_pairs, make_pair

from relbgg import (
    Bidegree,
    Bigrading,
    bigrade,
    block_structure_from_pair,
    commutator_audit,
)
from relbgg import oracle
from relbgg.cli import run
from relbgg.roots import RootSystem


def _runs(z):
    """Lengths of the runs of equal eigenvalues: the block sizes."""
    return tuple(len(list(run)) for _, run in itertools.groupby(z))


def _starts(z):
    """First row of each run of equal eigenvalues: the block starts."""
    return [u for u in range(len(z)) if u == 0 or z[u] != z[u - 1]]


def test_legendrean_blocks():
    bs = block_structure_from_pair(make_pair(4, {1, 4}, {1}))
    assert _runs(bs.z_q) == (1, 3, 1)
    assert _starts(bs.z_q) == [0, 1, 4]
    assert bs.bidegree(4, 0) == (-1, -1)
    assert bs.bidegree(1, 0) == (-1, 0)
    assert bs.bidegree(4, 1) == (0, -1)
    assert bs.bidegree(0, 1) == (1, 0)
    assert bs.bidegree(0, 4) == (1, 1)


def test_path_blocks():
    bs = block_structure_from_pair(make_pair(4, {1, 2}, {1}))
    sizes = _runs(bs.z_q)
    assert sizes == (1, 1, 3)
    assert _starts(bs.z_q) == [0, 1, 2]
    # same bidegree pattern, but the (-1,-1) block is now 3-dimensional
    assert bs.bidegree(2, 0) == (-1, -1)
    assert sizes[2] * sizes[0] == 3


def test_smallest_split():
    bs = block_structure_from_pair(make_pair(1, {1}, {1}))
    assert _runs(bs.z_q) == (1, 1)


def test_oracle_imports_only_the_grading_types():
    """The oracle computes its Z-degrees and root coefficients itself: from
    relbgg it imports only the three grading types, and nothing of roots."""
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "relbgg"):
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "relbgg" for alias in node.names)
    assert imported == {("grading", name) for name in ("Bidegree", "Bigrading", "ParabolicPair")}


def test_non_type_a_rejected():
    pair = make_pair(3, {1}, {1}, "B")
    with pytest.raises(ValueError):
        block_structure_from_pair(pair)


def test_transpose_antisymmetry():
    for pair in (make_pair(4, {1, 4}, {1}), make_pair(4, {1, 2}, {1}), make_pair(5, {2, 3, 5}, {3})):
        bs = block_structure_from_pair(pair)
        starts = _starts(bs.z_q)
        assert len(starts) == len(pair.sigma_q) + 1
        for u, w in itertools.product(starts, repeat=2):
            bd = bs.bidegree(u, w)
            assert bs.bidegree(w, u) == (-bd[0], -bd[1])


@pytest.mark.parametrize(
    "sq,sp", [({1, 4}, {1}), ({1, 2}, {1}), ({1, 2, 3, 4}, {2, 4}), ({3}, {3})]
)
def test_commutator_audit_clean_on_a4(sq, sp):
    pair = make_pair(4, sq, sp)
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert rep.ok
    assert rep.pairs_checked == 24 * 24
    assert rep.violations == ()
    assert rep.dim_mismatches == ()


def test_cartan_to_root_dim_cross_check():
    pair = make_pair(4, {1, 2}, {1})
    bg = bigrade(pair)
    bs = block_structure_from_pair(pair)
    # E_uw for u != w, then the m - 1 Cartan elements H_i at (0, 0)
    bidegs = [bs.bidegree(u, w) for u in range(bs.m) for w in range(bs.m) if u != w]
    bidegs += [Bidegree(0, 0)] * (bs.m - 1)
    for bd in bg.dims:
        block_dim = sum(1 for b in bidegs if b == bd)
        assert block_dim == bg.dim_component(Bidegree(*bd))


_bidegree = oracle.BlockStructure.bidegree


def _negated_second_index(self, u, w):
    """A wrong block bidegree: i'' negated, i' kept."""
    bd = _bidegree(self, u, w)
    return Bidegree(bd.i_prime, -bd.i_dprime)


def test_negated_second_index_is_caught(monkeypatch):
    """A block bidegree with i'' negated keeps every first index, so only the
    matrix oracle can see it: E15 has block bidegree (1, -1) but is listed
    at (1, 1), and the per-bidegree counts no longer match the roots."""
    pair = make_pair(4, {1, 4}, {1})
    monkeypatch.setattr(oracle.BlockStructure, "bidegree", _negated_second_index)
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert not rep.ok
    assert "E[1,5]" in rep.violations
    assert rep.dim_mismatches


def test_mismatched_grading_is_caught():
    """Blocks of the Legendrean pair against the root grading of the path pair:
    every root vector whose bidegree differs between the two is flagged, and
    so are the dimensions."""
    bs = block_structure_from_pair(make_pair(4, {1, 4}, {1}))
    bg = bigrade(make_pair(4, {1, 2}, {1}))
    rep = commutator_audit(bs, bg)
    assert not rep.ok
    assert rep.violations == (
        "E[1,3]", "E[1,4]", "E[2,3]", "E[2,4]", "E[3,1]", "E[3,2]",
        "E[3,5]", "E[4,1]", "E[4,2]", "E[4,5]", "E[5,3]", "E[5,4]",
    )
    assert rep.dim_mismatches == (
        "(-1, -1): block dim 1 vs root dim 3",
        "(-1, 0): block dim 3 vs root dim 1",
        "(1, 0): block dim 3 vs root dim 1",
        "(1, 1): block dim 1 vs root dim 3",
    )




def test_node_reversal_is_caught(monkeypatch):
    """Mutant: sigma-heights read with the diagram's nodes reversed.  The
    reversal is an automorphism of A_n, so every component keeps its
    dimension and the dims comparison alone sees nothing; but every nested
    pair of A2–A6 that the reversal does not fix is flagged: 1,014 of 1,089,
    the other 75 having both node sets symmetric."""
    heights = RootSystem.sigma_heights
    monkeypatch.setattr(
        RootSystem, "sigma_heights", lambda self, nodes: heights(self, [self.rank + 1 - i for i in nodes])
    )
    flagged = 0
    for rank in range(2, 7):
        for pair in all_pairs(rank):
            rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
            assert rep.dim_mismatches == ()
            symmetric = all({rank + 1 - i for i in s} == s for s in (pair.sigma_q, pair.sigma_p))
            assert rep.ok == symmetric, (rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
            flagged += not rep.ok
    assert flagged == 1014
    code, out, _ = run(["audit", "A4", "--sq", "1,2", "--sp", "1"])
    assert code == 3
    assert out.splitlines()[-1] != "0 violations"


@pytest.mark.parametrize("block_rank,root_rank", [(3, 4), (4, 3)])
def test_mismatched_rank_is_reported(block_rank, root_rank):
    """Blocks of one rank against the roots of another: a report, not an
    exception, whichever side is larger."""
    bs = block_structure_from_pair(make_pair(block_rank, {1}, {1}))
    rep = commutator_audit(bs, bigrade(make_pair(root_rank, {1}, {1})))
    assert not rep.ok
    assert rep.violations and rep.dim_mismatches


def _replace_row(monkeypatch, bd, index, row):
    """Mutant: ``root_spaces`` lists ``row`` in place of the positive row at
    ``index`` of component ``bd``."""
    spaces = Bigrading.root_spaces

    def patched(self):
        out = spaces(self)
        negated, positive = out[bd]
        out[bd] = (negated, positive[:index] + (row,) + positive[index + 1:])
        return out

    monkeypatch.setattr(Bigrading, "root_spaces", patched)


def test_repeated_root_is_caught(monkeypatch):
    """E12 listed twice at (1, 0) and E13 not at all: the dimensions still
    agree, so only the per-root check sees it."""
    pair = make_pair(4, {1, 4}, {1})
    _replace_row(monkeypatch, Bidegree(1, 0), 1, bytes([1, 0, 0, 0]))
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert not rep.ok
    assert rep.violations == ("E[1,2]", "E[1,3]")
    assert rep.dim_mismatches == ()


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (0, 2, 0)])
def test_non_root_row_is_caught(monkeypatch, coeffs):
    """A row that is no root of A3 is listed by its coefficients, after the
    basis element it displaced."""
    pair = make_pair(3, {1, 3}, {1})
    _replace_row(monkeypatch, Bidegree(1, 0), 1, bytes(coeffs))
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert not rep.ok
    assert rep.violations == ("E[1,3]", str(coeffs))
    assert rep.dim_mismatches == ()


def test_audit_reads_each_block_pair_once(monkeypatch):
    """The bidegree is constant on each pair of blocks, so the audit reads it
    (number of blocks)^2 times, not once per matrix entry."""
    calls = []

    def counted(self, u, w):
        calls.append((u, w))
        return _bidegree(self, u, w)

    monkeypatch.setattr(oracle.BlockStructure, "bidegree", counted)
    for rank, sq, sp, blocks in ((12, {2, 7, 9}, {7}, 4), (4, {1, 4}, {1}, 3), (4, set(), set(), 1)):
        pair = make_pair(rank, sq, sp)
        calls.clear()
        assert commutator_audit(block_structure_from_pair(pair), bigrade(pair)).ok
        assert len(calls) == blocks ** 2, (rank, sq, sp, len(calls))


def _per_entry_audit(bs, bg):
    """Reference: the audit with one bidegree read per matrix entry and the
    dimensions counted over the entries."""
    m = bs.m
    own = {(u, w): bs.bidegree(u, w) for u in range(m) for w in range(m) if u != w}
    root_entry = {bytes(u) + b"\1" * (w - u) + bytes(m - 1 - w): (u, w) for u, w in own if u < w}
    listed, non_roots = {}, []
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
    counts = Counter(own.values())
    counts[Bidegree(0, 0)] += m - 1
    mismatches = [
        f"{tuple(bd)}: block dim {counts.get(bd, 0)} vs root dim {bg.dim_component(bd)}"
        for bd in sorted(set(counts) | set(bg.dims))
        if counts.get(bd, 0) != bg.dim_component(bd)
    ]
    return oracle.OracleReport(
        ok=not violations and not mismatches,
        violations=tuple(violations),
        pairs_checked=(m * m - 1) ** 2,
        dim_mismatches=tuple(mismatches),
    )


def _assert_matches_per_entry_rule(block_pairs, grading_pairs):
    """Every block structure of ``block_pairs`` against every grading of
    ``grading_pairs``; the eigenvalues are z_u = #{k in sigma : k > u}."""
    gradings = [bigrade(pair) for pair in grading_pairs]
    for block_pair in block_pairs:
        bs = block_structure_from_pair(block_pair)
        sigmas = (block_pair.sigma_p, block_pair.sigma_q)
        assert bs == tuple(tuple(sum(k > u for k in s) for u in range(bs.m)) for s in sigmas)
        for bg in gradings:
            assert commutator_audit(bs, bg) == _per_entry_audit(bs, bg), (block_pair, bg.pair)


_ROW_MUTANTS = {
    3: [(Bidegree(1, 0), 1, bytes([1, 0, 1])), (Bidegree(1, 0), 1, bytes([0, 2, 0]))],
    4: [(Bidegree(1, 0), 1, bytes([1, 0, 0, 0]))],
}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_audit_matches_the_per_entry_rule(monkeypatch, rank):
    """Block by block, the audit gives the report of the per-entry rule on
    every same-rank combination of blocks and grading, clean or not, and
    under the row-replacing mutants of the tests above."""
    pairs = list(all_pairs(rank))
    _assert_matches_per_entry_rule(pairs, pairs)
    for bd, index, row in _ROW_MUTANTS.get(rank, []):
        # the mutant replaces a positive row of bd: gradings listing that row
        hit = [p for p in pairs if len(bigrade(p).root_spaces().get(bd, ((), ()))[1]) > index]
        assert hit
        with monkeypatch.context() as patch:
            _replace_row(patch, bd, index, row)
            _assert_matches_per_entry_rule(pairs, hit)
