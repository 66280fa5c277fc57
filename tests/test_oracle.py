"""Matrix-oracle checks: the block picture must agree with the root picture."""

import itertools
import random
from collections import Counter

import pytest
from common import all_pairs, make_pair

from relbgg import (
    Bidegree,
    bigrade,
    block_structure_from_pair,
    commutator_audit,
)
from relbgg import oracle
from relbgg.oracle import bracket
from relbgg.roots import MAX_RANK


def basis_with_bidegrees(bs):
    """Basis of sl(m) as sparse matrices, their bidegrees, and display names."""
    mats, names = oracle._basis(bs.m)
    return mats, oracle._bidegrees(bs), names


@pytest.fixture(autouse=True)
def _fresh_commutator_table():
    """Each test brackets the basis afresh, so a patched ``bracket`` is the one
    the audit uses, and no table built under a patch outlives its test."""
    oracle._commutator_table.cache_clear()
    yield
    oracle._commutator_table.cache_clear()


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
    pair = make_pair(4, sq, sp)
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert rep.ok
    assert rep.pairs_checked == 24 * 24
    assert rep.violations == ()
    assert rep.dim_mismatches == ()


def test_jacobi_identity_sampled():
    bs = block_structure_from_pair(make_pair(4, {1, 4}, {1}))
    x, _, _ = basis_with_bidegrees(bs)
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (x[rng.randrange(len(x))] for _ in range(3))
        lhs = _add(bracket(bracket(a, b), c), bracket(bracket(b, c), a), bracket(bracket(c, a), b))
        assert lhs == {}


def test_basis_is_traceless_and_sized():
    bs = block_structure_from_pair(make_pair(3, {1, 3}, {1}))
    x, bidegs, names = basis_with_bidegrees(bs)
    m = bs.m
    assert len(x) == len(bidegs) == len(names) == m * m - 1
    assert all(0 <= u < m and 0 <= w < m for mat in x for u, w in mat)
    assert all(_trace(mat) == 0 for mat in x)
    assert len(set(names)) == len(names)
    cartan = [n for n in names if n.startswith("H")]
    assert len(cartan) == m - 1


def test_cartan_to_root_dim_cross_check():
    pair = make_pair(4, {1, 2}, {1})
    bg = bigrade(pair)
    bs = block_structure_from_pair(pair)
    _, bidegs, _ = basis_with_bidegrees(bs)
    for bd in bg.dims:
        block_dim = sum(1 for b in bidegs if b == bd)
        assert block_dim == bg.dim_component(Bidegree(*bd))


def _transposed(x, y):
    """A wrong bracket: the transpose of [x, y]."""
    return {(w, u): c for (u, w), c in bracket(x, y).items()}


_bidegree = oracle.BlockStructure.bidegree


def _negated_second_index(self, u, w):
    """A wrong block bidegree: i'' negated, i' kept."""
    bd = _bidegree(self, u, w)
    return Bidegree(bd.i_prime, -bd.i_dprime)


def test_wrong_bracket_is_caught(monkeypatch):
    """A bracket that transposes its result breaks every nonzero-degree pair."""
    pair = make_pair(4, {1, 4}, {1})
    bs = block_structure_from_pair(pair)
    bg = bigrade(pair)

    monkeypatch.setattr(oracle, "bracket", _transposed)
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
    pair = make_pair(4, {1, 4}, {1})
    monkeypatch.setattr(oracle.BlockStructure, "bidegree", _negated_second_index)
    rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
    assert not rep.ok
    assert rep.violations
    assert rep.dim_mismatches


def test_mismatched_grading_is_caught():
    """Blocks of the Legendrean pair against the root grading of the path pair."""
    bs = block_structure_from_pair(make_pair(4, {1, 4}, {1}))
    bg = bigrade(make_pair(4, {1, 2}, {1}))
    rep = commutator_audit(bs, bg)
    assert not rep.ok
    assert rep.violations == ()
    assert rep.dim_mismatches == (
        "(-1, -1): block dim 1 vs root dim 3",
        "(-1, 0): block dim 3 vs root dim 1",
        "(1, 0): block dim 3 vs root dim 1",
        "(1, 1): block dim 1 vs root dim 3",
    )


def _supports_meet(x, y):
    """xy or yx can be nonzero: a column of x is a row of y, or a row of x a
    column of y."""
    return any(v == u2 or w == u for u, v in x for u2, w in y)


def _recorded_brackets(monkeypatch, pair):
    """Run the audit on ``pair`` with its rank's commutator table uncached
    and return the basis positions (i, j) it bracketed, in call order,
    together with its report."""
    bs = block_structure_from_pair(pair)
    mats, _, _ = basis_with_bidegrees(bs)
    position = {tuple(sorted(mat.items())): i for i, mat in enumerate(mats)}
    calls = []

    def recording(x, y):
        calls.append((position[tuple(sorted(x.items()))], position[tuple(sorted(y.items()))]))
        return bracket(x, y)

    monkeypatch.setattr(oracle, "bracket", recording)
    oracle._commutator_table.cache_clear()  # the audit brackets its rank afresh
    rep = commutator_audit(bs, bigrade(pair))
    monkeypatch.undo()
    return calls, rep


@pytest.mark.parametrize("rank", range(1, 6))
def test_audit_brackets_exactly_the_pairs_whose_supports_meet(monkeypatch, rank):
    """The support filter is exact: the audit brackets every pair whose
    supports meet, in x-major, y-minor order, and every pair it skips
    brackets to zero."""
    mats, _, _ = basis_with_bidegrees(block_structure_from_pair(make_pair(rank, (), ())))
    n = len(mats)
    meeting = [(i, j) for i in range(n) for j in range(n) if _supports_meet(mats[i], mats[j])]
    skipped = set(itertools.product(range(n), repeat=2)) - set(meeting)
    assert all(bracket(mats[i], mats[j]) == {} for i, j in skipped)
    for pair in all_pairs(rank):
        calls, rep = _recorded_brackets(monkeypatch, pair)
        assert calls == meeting, (sorted(pair.sigma_q), sorted(pair.sigma_p))
        assert rep.ok and rep.pairs_checked == n * n


def test_audit_bracket_count_is_cubic(monkeypatch):
    """A12: 4,726 brackets instead of (13² − 1)² = 28,224, which is still
    what ``pairs_checked`` reports."""
    calls, rep = _recorded_brackets(monkeypatch, make_pair(12, {3, 6}, {3}))
    assert len(calls) == 4726
    assert rep.ok and rep.pairs_checked == 28224


def _dense_mismatches(bracket_fn, m):
    """Basis pairs of sl(m) on which ``bracket_fn`` differs from XY − YX
    taken with dense list-of-lists matrices."""

    def dense(mat):
        out = [[0] * m for _ in range(m)]
        for (u, w), c in mat.items():
            out[u][w] = c
        return out

    def product(a, b):
        return [[sum(a[u][k] * b[k][w] for k in range(m)) for w in range(m)] for u in range(m)]

    mats, _, names = basis_with_bidegrees(block_structure_from_pair(make_pair(m - 1, (), ())))
    bad = []
    for (x, nx), (y, ny) in itertools.product(zip(mats, names), repeat=2):
        xy, yx = product(dense(x), dense(y)), product(dense(y), dense(x))
        want = {(u, w): xy[u][w] - yx[u][w] for u in range(m) for w in range(m)}
        if bracket_fn(x, y) != {k: c for k, c in want.items() if c}:
            bad.append(f"[{nx},{ny}]")
    return bad


@pytest.mark.parametrize("m", range(2, 6))
def test_bracket_matches_dense_commutator(m):
    assert _dense_mismatches(bracket, m) == []


def test_spurious_disjoint_bracket_is_caught_by_the_dense_check(monkeypatch):
    """The audit never brackets pairs whose supports are disjoint, so a
    bracket that is wrong only there passes it; the dense comparison above
    is what catches such a bracket."""

    def spurious(x, y):
        return bracket(x, y) if _supports_meet(x, y) else {(0, 0): 1}

    assert "[E[1,2],E[3,4]]" in _dense_mismatches(spurious, 4)
    pair = make_pair(3, {1, 3}, {1})
    monkeypatch.setattr(oracle, "bracket", spurious)
    assert commutator_audit(block_structure_from_pair(pair), bigrade(pair)).ok


# -- the per-rank commutator table --------------------------------------------

def _reference_audit(bs, bg):
    """The per-pair loop the commutator table replaced: bracket every basis
    pair whose supports meet, X-major, Y-minor, and check each entry of the
    result against the summed bidegree."""
    mats, bidegs, names = basis_with_bidegrees(bs)
    zp, zq = bs.z_p, bs.z_q
    with_row = [[] for _ in zp]
    with_col = [[] for _ in zp]
    for j, y in enumerate(mats):
        for u, w in y:
            with_row[u].append(j)
            with_col[w].append(j)
    violations = []
    for x, dx, nx in zip(mats, bidegs, names):
        for j in sorted({j for u, v in x for js in (with_row[v], with_col[u]) for j in js}):
            y, dy, ny = mats[j], bidegs[j], names[j]
            hp = dx.i_prime + dy.i_prime
            hq = hp + dx.i_dprime + dy.i_dprime
            if any(zp[u] - zp[w] != hp or zq[u] - zq[w] != hq for u, w in oracle.bracket(x, y)):
                violations.append(f"[{nx},{ny}]")
    block_counts = Counter(bidegs)
    mismatches = []
    for bd in sorted(set(block_counts) | set(bg.dims)):
        left, right = block_counts.get(bd, 0), bg.dim_component(bd)
        if left != right:
            mismatches.append(f"{tuple(bd)}: block dim {left} vs root dim {right}")
    return violations, len(names) ** 2, mismatches


@pytest.mark.parametrize("mutation", ["none", "transposed bracket", "negated i''"])
def test_table_audit_matches_the_per_pair_loop(monkeypatch, mutation):
    """Every nested pair of A1–A5 gets the report of the per-pair loop, field
    for field, also when the bracket or the block bidegree is wrong."""
    if mutation == "transposed bracket":
        monkeypatch.setattr(oracle, "bracket", _transposed)
    elif mutation == "negated i''":
        monkeypatch.setattr(oracle.BlockStructure, "bidegree", _negated_second_index)
    flagged = 0
    for rank in range(1, 6):
        for pair in all_pairs(rank):
            bs, bg = block_structure_from_pair(pair), bigrade(pair)
            rep = commutator_audit(bs, bg)
            violations, pairs_checked, mismatches = _reference_audit(bs, bg)
            where = (rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
            assert list(rep.violations) == violations, where
            assert rep.pairs_checked == pairs_checked, where
            assert list(rep.dim_mismatches) == mismatches, where
            assert rep.ok == (not violations and not mismatches), where
            flagged += not rep.ok
    assert (flagged == 0) == (mutation == "none")


def test_each_rank_is_bracketed_once_per_process(monkeypatch):
    """A second audit at the same rank reads the table: no bracket at all,
    and the report a freshly bracketed table gives."""
    first, second = make_pair(6, {1, 4}, {1}), make_pair(6, {2, 3, 5}, {3})
    commutator_audit(block_structure_from_pair(first), bigrade(first))
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return bracket(x, y)

    monkeypatch.setattr(oracle, "bracket", counting)
    bs, bg = block_structure_from_pair(second), bigrade(second)
    warm = commutator_audit(bs, bg)
    assert calls == []
    oracle._commutator_table.cache_clear()
    cold = commutator_audit(bs, bg)
    assert len(calls) > 0
    assert warm == cold


def test_a12_table_holds_every_nonzero_entry_once(monkeypatch):
    """A12: 4,726 brackets give 4,848 nonzero entries, six bytes each, and the
    entries of each pair are those of its bracket, in order."""
    calls, _ = _recorded_brackets(monkeypatch, make_pair(12, {3, 6}, {3}))
    table, names = oracle._commutator_table(13)
    assert len(calls) == 4726
    assert len(table) == 3 * 4848
    assert table.itemsize * len(table) == 6 * 4848
    mats, basis_names = oracle._basis(13)
    assert names == tuple(basis_names)
    triples = iter(table)
    entries = {}
    for i, j, k in zip(triples, triples, triples):
        entries.setdefault((i, j), []).append(k)
    assert all(entries.get((i, j), []) == [u * 13 + w for u, w in bracket(mats[i], mats[j])]
               for i, j in calls)


def test_table_is_bounded_by_the_rank_cap():
    """Every rank up to ``MAX_RANK`` together: 32 tables, 4,019,136 bytes."""
    size = sum(len(t) * t.itemsize for t, _ in map(oracle._commutator_table, range(2, MAX_RANK + 2)))
    assert oracle._commutator_table.cache_info().currsize == MAX_RANK
    assert size == 4_019_136
