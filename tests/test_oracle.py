"""Matrix-oracle checks: the block picture must agree with the root picture."""

import itertools
import random

import pytest

from relbgg import (
    Bidegree,
    ParabolicPair,
    bigrade,
    block_structure_from_pair,
    build_root_system,
    commutator_audit,
)
from relbgg import oracle
from relbgg.oracle import basis_with_bidegrees, bracket


def _pair(rank, sq, sp):
    return ParabolicPair(
        rs=build_root_system("A", rank), sigma_q=frozenset(sq), sigma_p=frozenset(sp)
    )


def all_pairs(rank):
    nodes = list(range(1, rank + 1))
    for q_mask in itertools.product((0, 1), repeat=rank):
        sq = frozenset(i for i, b in zip(nodes, q_mask) if b)
        members = sorted(sq)
        for p_mask in itertools.product((0, 1), repeat=len(members)):
            sp = frozenset(i for i, b in zip(members, p_mask) if b)
            yield _pair(rank, sq, sp)


def _runs(z):
    """Lengths of the runs of equal eigenvalues: the block sizes."""
    return tuple(len(list(run)) for _, run in itertools.groupby(z))


def _starts(z):
    """First row of each run of equal eigenvalues: the block starts."""
    return [u for u in range(len(z)) if u == 0 or z[u] != z[u - 1]]


def test_legendrean_blocks():
    bs = block_structure_from_pair(_pair(4, {1, 4}, {1}))
    assert _runs(bs.z_q) == (1, 3, 1)
    assert _starts(bs.z_q) == [0, 1, 4]
    assert bs.bidegree(4, 0) == (-1, -1)
    assert bs.bidegree(1, 0) == (-1, 0)
    assert bs.bidegree(4, 1) == (0, -1)
    assert bs.bidegree(0, 1) == (1, 0)
    assert bs.bidegree(0, 4) == (1, 1)


def test_path_blocks():
    bs = block_structure_from_pair(_pair(4, {1, 2}, {1}))
    sizes = _runs(bs.z_q)
    assert sizes == (1, 1, 3)
    assert _starts(bs.z_q) == [0, 1, 2]
    # same bidegree pattern, but the (-1,-1) block is now 3-dimensional
    assert bs.bidegree(2, 0) == (-1, -1)
    assert sizes[2] * sizes[0] == 3


def test_smallest_split():
    bs = block_structure_from_pair(_pair(1, {1}, {1}))
    assert _runs(bs.z_q) == (1, 1)


def test_non_type_a_rejected():
    rs = build_root_system("B", 3)
    pair = ParabolicPair(rs=rs, sigma_q=frozenset({1}), sigma_p=frozenset({1}))
    with pytest.raises(ValueError):
        block_structure_from_pair(pair)


def test_transpose_antisymmetry():
    for pair in (_pair(4, {1, 4}, {1}), _pair(4, {1, 2}, {1}), _pair(5, {2, 3, 5}, {3})):
        bs = block_structure_from_pair(pair)
        starts = _starts(bs.z_q)
        assert len(starts) == len(pair.sigma_q) + 1
        for u, w in itertools.product(starts, repeat=2):
            bd = bs.bidegree(u, w)
            assert bs.bidegree(w, u) == (-bd[0], -bd[1])


def _add(*mats):
    out = {}
    for mat in mats:
        for k, c in mat.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _trace(mat):
    return sum(c for (u, w), c in mat.items() if u == w)


def test_diagonal_commutator_lands_in_cartan():
    e12, e21 = {(0, 1): 1}, {(1, 0): 1}
    c = bracket(e12, e21)
    assert c == {(0, 0): 1, (1, 1): -1}
    assert _trace(c) == 0
    assert bracket(e21, e12) == {(0, 0): -1, (1, 1): 1}


@pytest.mark.parametrize(
    "sq,sp", [({1, 4}, {1}), ({1, 2}, {1}), ({1, 2, 3, 4}, {2, 4}), ({3}, {3})]
)
def test_commutator_audit_clean_on_a4(sq, sp):
    pair = _pair(4, sq, sp)
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert rep.ok
    assert rep.pairs_checked == 24 * 24
    assert rep.violations == ()
    assert rep.dim_mismatches == ()


def test_dim_agreement_exhaustive_small_ranks():
    for rank in range(1, 5):
        for pair in all_pairs(rank):
            rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
            assert rep.ok, (sorted(pair.sigma_q), sorted(pair.sigma_p), rep)


def test_jacobi_identity_sampled():
    bs = block_structure_from_pair(_pair(4, {1, 4}, {1}))
    x, _, _ = basis_with_bidegrees(bs)
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (x[rng.randrange(len(x))] for _ in range(3))
        lhs = _add(bracket(bracket(a, b), c), bracket(bracket(b, c), a), bracket(bracket(c, a), b))
        assert lhs == {}


def test_basis_is_traceless_and_sized():
    bs = block_structure_from_pair(_pair(3, {1, 3}, {1}))
    x, bidegs, names = basis_with_bidegrees(bs)
    m = bs.m
    assert len(x) == len(bidegs) == len(names) == m * m - 1
    assert all(0 <= u < m and 0 <= w < m for mat in x for u, w in mat)
    assert all(_trace(mat) == 0 for mat in x)
    assert len(set(names)) == len(names)
    cartan = [n for n in names if n.startswith("H")]
    assert len(cartan) == m - 1


def test_cartan_to_root_dim_cross_check():
    pair = _pair(4, {1, 2}, {1})
    bg = bigrade(pair)
    bs = block_structure_from_pair(pair)
    _, bidegs, _ = basis_with_bidegrees(bs)
    for bd in bg.components:
        block_dim = sum(1 for b in bidegs if b == bd)
        assert block_dim == bg.dim_component(Bidegree(*bd))


def test_wrong_bracket_is_caught(monkeypatch):
    """A bracket that transposes its result breaks every nonzero-degree pair."""
    pair = _pair(4, {1, 4}, {1})
    bs = block_structure_from_pair(pair)
    bg = bigrade(pair)

    def transposed(x, y):
        return {(w, u): c for (u, w), c in bracket(x, y).items()}

    monkeypatch.setattr(oracle, "bracket", transposed)
    rep = commutator_audit(bs, bg)
    assert not rep.ok
    assert rep.pairs_checked == 24 * 24
    assert rep.dim_mismatches == ()
    assert len(rep.violations) == 156
    # [E12, E23] = E13 has degree (1, 0); its transpose E31 has (-1, 0)
    assert rep.violations[0] == "[E[1,2],E[2,3]]"
    assert "[E[1,2],E[2,1]]" not in rep.violations  # diagonal results are degree (0, 0) both ways


def test_negated_second_index_is_caught(monkeypatch):
    """A block bidegree with i'' negated keeps every first index, so only the
    commutator audit can see it: [E12, E23] = E13 no longer sums, and the
    per-bidegree counts no longer match the roots."""
    pair = _pair(4, {1, 4}, {1})
    bidegree = oracle.BlockStructure.bidegree

    def negated(self, u, w):
        bd = bidegree(self, u, w)
        return Bidegree(bd.i_prime, -bd.i_dprime)

    monkeypatch.setattr(oracle.BlockStructure, "bidegree", negated)
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert not rep.ok
    assert rep.violations
    assert rep.dim_mismatches


def test_mismatched_grading_is_caught():
    """Blocks of the Legendrean pair against the root grading of the path pair."""
    bs = block_structure_from_pair(_pair(4, {1, 4}, {1}))
    bg = bigrade(_pair(4, {1, 2}, {1}))
    rep = commutator_audit(bs, bg)
    assert not rep.ok
    assert rep.violations == ()
    assert rep.dim_mismatches == (
        "(-1, -1): block dim 1 vs root dim 3",
        "(-1, 0): block dim 3 vs root dim 1",
        "(1, 0): block dim 3 vs root dim 1",
        "(1, 1): block dim 1 vs root dim 3",
    )
