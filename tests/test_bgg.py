"""Relative sequence engine: Hasse diagrams, shifted action, orders.

The pinned convention (rightmost generator first, minimal representatives
with w^{-1} positive on the uncrossed sigma_q nodes, full rho shift) is
locked in by the worked path-type sequences below; every other check is
structural or derived from an independent identity.
"""

import itertools
import random

import pytest
from test_roots import pairing_reference

from relbgg import (
    ParabolicPair,
    Root,
    Weight,
    WeylWord,
    affine_act,
    build_root_system,
    operator_order,
    parse_label,
    relative_bgg_sequence,
    relative_hasse,
    root_to_weight,
)
from relbgg.bgg import MAX_HASSE_ELEMENTS, hasse_size


def _pair(rank, sq, sp, type_tag="A"):
    return ParabolicPair(
        rs=build_root_system(type_tag, rank), sigma_q=frozenset(sq), sigma_p=frozenset(sp)
    )


def _reflect_root(rs, i, v):
    """Simple reflection s_i on simple-root coordinates."""
    k = sum(rs.cartan[i - 1][j] * v[j] for j in range(rs.rank))
    out = list(v)
    out[i - 1] -= k
    return tuple(out)


def _connecting_roots(hd):
    """beta_k = w_k(alpha_i) with w_{k+1} = w_k s_i, along a chain."""
    rs = hd.pair.rs
    roots = []
    for wk, wk1 in zip(hd.elements, hd.elements[1:]):
        beta = tuple(int(j == wk1.gens[-1]) for j in range(1, rs.rank + 1))
        for g in reversed(wk.gens):
            beta = _reflect_root(rs, g, beta)
        roots.append(beta)
    return roots


def path_pair(n=3):
    return _pair(n + 1, {1, 2}, {1})


def legendrean_pair(n):
    return _pair(n + 1, {1, n + 1}, {1})


# -- Hasse diagrams ----------------------------------------------------------

def test_path_hasse_words():
    hd = relative_hasse(path_pair())
    assert [w.gens for w in hd.elements] == [(), (2,), (2, 3), (2, 3, 4)]
    assert hd.is_chain
    assert _connecting_roots(hd) == [
        (0, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 1, 1, 1),
    ]


def test_equal_sets_give_identity_diagram():
    hd = relative_hasse(_pair(3, {1}, {1}))
    assert [w.gens for w in hd.elements] == [()]
    assert hd.is_chain


def test_legendrean_hasse_sizes_and_lengths():
    hd = relative_hasse(legendrean_pair(2))
    assert [w.length for w in hd.elements] == [0, 1, 2]
    assert len(hd.elements) == 3


@pytest.mark.parametrize("n", range(2, 6))
def test_legendrean_hasse_size_is_n_plus_one(n):
    assert len(relative_hasse(legendrean_pair(n)).elements) == n + 1


def test_hasse_size_matches_coset_index():
    # |W_L| / |W_{L & q}| with L the Levi nodes of p
    hd = relative_hasse(path_pair())
    assert len(hd.elements) == 24 // 6


def test_rank_one_relative_directions_give_two_bundles():
    # sigma_q = {1,2}, sigma_p = {2}: a single operator in every sequence
    for n in range(2, 5):
        hd = relative_hasse(_pair(n + 1, {1, 2}, {2}))
        assert len(hd.elements) == 2


def test_broken_shifted_action_trips_q_validity_guard(monkeypatch):
    import relbgg.bgg as bgg

    def wrong_order(w, lam, rs):  # w's letters applied left to right
        mu = lam + rs.rho
        for g in w.gens:
            mu = bgg.reflect(rs, g, mu)
        return mu - rs.rho

    monkeypatch.setattr(bgg, "affine_act", wrong_order)
    src = parse_label("A4[x,o,o,o](-2,1,0,0)")
    with pytest.raises(bgg.InternalCheckError, match="entry 2 produced the Q-invalid label"):
        relative_bgg_sequence(src, path_pair())


def test_non_linear_diagram_detected():
    hd = relative_hasse(_pair(4, {1, 3}, {1}))
    assert len(hd.elements) == 6
    assert [w.length for w in hd.elements] == [0, 1, 2, 2, 3, 4]
    assert not hd.is_chain


# -- shifted action ----------------------------------------------------------

def test_affine_act_worked_examples():
    rs = build_root_system("A", 4)
    lam = Weight((-2, 1, 0, 0))
    assert affine_act(WeylWord((2,)), lam, rs) == Weight((0, -3, 2, 0))
    assert affine_act(WeylWord((2, 3)), lam, rs) == Weight((1, -4, 1, 1))
    assert affine_act(WeylWord(()), lam, rs) == lam


def test_affine_act_group_law_seeded():
    rng = random.Random(11)
    for _ in range(300):
        rank = rng.randint(2, 5)
        rs = build_root_system("A", rank)
        gens = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 6)))
        cut = rng.randint(0, len(gens))
        w, v = WeylWord(gens[:cut]), WeylWord(gens[cut:])
        lam = Weight(tuple(rng.randint(-8, 8) for _ in range(rank)))
        assert affine_act(WeylWord(gens), lam, rs) == affine_act(
            w, affine_act(v, lam, rs), rs
        )


# -- sequences ---------------------------------------------------------------

def test_dual_standard_sequence():
    seq = relative_bgg_sequence(parse_label("A4[x,o,o,o](-2,1,0,0)"), path_pair())
    assert [e.label.coeffs.coeffs for e in seq.entries] == [
        (-2, 1, 0, 0),
        (0, -3, 2, 0),
        (1, -4, 1, 1),
        (2, -5, 1, 0),
    ]
    assert tuple(e.order_to_next for e in seq.entries[:-1]) == (2, 1, 1)
    assert all(e.label.crossed == {1, 2} for e in seq.entries)


def test_symmetric_square_first_labels():
    seq = relative_bgg_sequence(parse_label("A4[x,o,o,o](-4,2,0,0)"), path_pair())
    assert seq.entries[0].label.coeffs.coeffs == (-4, 2, 0, 0)
    assert seq.entries[1].label.coeffs.coeffs == (-1, -4, 3, 0)


def test_two_form_sequence_and_known_mismatch():
    """The two-form source.  The last label is (1,-5,0,1): shifted to start
    at 0, the epsilon coordinates of its lambda + rho form {0,1,2,3,4} like
    the source's, whereas those of the sometimes quoted (1,-3,0,1) form
    {0,1,2,3,3}, so that value is not an image under the shifted action."""
    seq = relative_bgg_sequence(parse_label("A4[x,o,o,o](-3,0,1,0)"), path_pair())
    labels = [e.label.coeffs.coeffs for e in seq.entries]
    assert labels[:3] == [(-3, 0, 1, 0), (-2, -2, 2, 0), (0, -4, 0, 2)]
    assert tuple(e.order_to_next for e in seq.entries[:-1]) == (1, 2, 1)
    assert labels[3] == (1, -5, 0, 1)
    assert labels[3][2:] == (0, 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetric_power_order_law(k):
    src = parse_label(f"A4[x,o,o,o]({-2 * k},{k},0,0)")
    seq = relative_bgg_sequence(src, path_pair())
    orders = tuple(e.order_to_next for e in seq.entries[:-1])
    assert orders[0] == k + 1
    assert set(orders[1:]) <= {1}
    assert seq.entries[1].label.coeffs.coeffs == (-k + 1, -k - 2, k + 1, 0)


@pytest.mark.parametrize("n", range(2, 6))
def test_legendrean_line_bundle_sequence(n):
    coeffs = ["0"] * (n + 1)
    coeffs[0] = coeffs[-1] = "1"
    marks = ["o"] * (n + 1)
    marks[0] = "x"
    src = parse_label(f"A{n + 1}[{','.join(marks)}]({','.join(coeffs)})")
    seq = relative_bgg_sequence(src, legendrean_pair(n))
    assert len(seq.entries) == n + 1
    first = seq.entries[0].label
    assert all(c == 0 for _, c in first.uncrossed_coeffs())
    orders = tuple(e.order_to_next for e in seq.entries[:-1])
    assert orders[0] == 2
    assert set(orders[1:]) == {1}


def test_single_bundle_sequence():
    seq = relative_bgg_sequence(parse_label("A1[x](0)"), _pair(1, {1}, {1}))
    assert len(seq.entries) == 1
    assert seq.entries[0].order_to_next is None


def test_sequence_rejects_bad_sources():
    with pytest.raises(ValueError):
        # not P-dominant
        relative_bgg_sequence(parse_label("A4[x,o,o,o](0,-1,0,0)"), path_pair())
    with pytest.raises(ValueError):
        # crossed set is not sigma_p
        relative_bgg_sequence(parse_label("A4[x,x,o,o](-2,1,0,0)"), path_pair())
    with pytest.raises(ValueError):
        # wrong rank
        relative_bgg_sequence(parse_label("A3[x,o,o](1,0,1)"), path_pair())


def test_sequence_rejects_non_linear_diagram():
    with pytest.raises(ValueError, match="not linear"):
        relative_bgg_sequence(parse_label("A4[x,o,o,o](1,1,1,1)"), _pair(4, {1, 3}, {1}))


# -- structural invariants ---------------------------------------------------

def _chain_pairs(rng):
    rank = rng.randint(2, 5)
    kind = rng.choice(["path", "contact", "tilde", "collapsed"])
    if kind == "path" and rank >= 2:
        return _pair(rank, {1, 2}, {1})
    if kind == "contact" and rank >= 2:
        return _pair(rank, {1, rank}, {1})
    if kind == "tilde" and rank >= 2:
        return _pair(rank, {1, 2}, {2})
    return _pair(rank, {1}, {1})


def test_sequence_entries_are_q_dominant_for_random_sources():
    rng = random.Random(23)
    for _ in range(300):
        pair = _chain_pairs(rng)
        rank = pair.rs.rank
        coeffs = [0] * rank
        for i in range(rank):
            lo = -6 if (i + 1) in pair.sigma_p else 0
            coeffs[i] = rng.randint(lo, 6)
        src_coeffs = ",".join(map(str, coeffs))
        marks = ",".join("x" if i in pair.sigma_p else "o" for i in range(1, rank + 1))
        src = parse_label(f"A{rank}[{marks}]({src_coeffs})")
        seq = relative_bgg_sequence(src, pair)
        assert len(seq.entries) == len(relative_hasse(pair).elements)
        for entry in seq.entries:
            assert all(c >= 0 for _, c in entry.label.uncrossed_coeffs())


def test_orders_match_source_coefficients():
    """Independent identity: pairing is Weyl-invariant, so the order between
    steps k and k+1 equals <src + rho, w_k^{-1}(beta_k)> and w_k^{-1}(beta_k)
    must be a simple root of the Levi of p."""
    rng = random.Random(31)
    for _ in range(100):
        pair = _chain_pairs(rng)
        rs = pair.rs
        hd = relative_hasse(pair)
        for k, beta in enumerate(_connecting_roots(hd)):
            wk = hd.elements[k]
            back = beta
            for g in wk.gens:  # w_k^{-1} applies the generators left to right
                back = _reflect_root(rs, g, back)
            assert sum(back) == 1 and all(c in (0, 1) for c in back)
            j = back.index(1) + 1
            assert j not in pair.sigma_p
            lam = Weight(tuple(rng.randint(0, 5) for _ in range(rs.rank)))
            lam_k = affine_act(wk, lam, rs)
            assert operator_order(lam_k, Root(beta), rs) == lam.coeffs[j - 1] + 1


def test_operator_order_direct():
    rs = build_root_system("A", 4)
    assert operator_order(Weight((-2, 1, 0, 0)), Root((0, 1, 0, 0)), rs) == 2
    with pytest.raises(ValueError):
        operator_order(Weight((0, 0, 0, 0)), Root((1, 0, 1, 0)), rs)


# -- brute-force reference ---------------------------------------------------

def _reference_hasse(pair):
    """The Hasse diagram by exhaustion: enumerate the Levi Weyl group, filter
    minimal coset representatives, scan all positive roots for connections.

    Elements are stored as images of the simple roots; the breadth-first
    search over generators in ascending order records the lexicographically
    smallest reduced word of v = w^{-1}.
    """
    rs = pair.rs
    levi = [i for i in range(1, rs.rank + 1) if i not in pair.sigma_p]
    identity = tuple(tuple(int(i == j) for i in range(rs.rank)) for j in range(rs.rank))

    def times_simple(imgs, i):
        """Images under v s_i from those under v: v(a_j) - C[i][j] v(a_i)."""
        base = imgs[i - 1]
        return tuple(
            tuple(a - rs.cartan[i - 1][j] * b for a, b in zip(imgs[j], base))
            for j in range(rs.rank)
        )

    def s_beta(beta, v):
        n = pairing_reference(root_to_weight(rs, Root(v)).coeffs, beta.coeffs, rs.cartan)
        return tuple(a - n * b for a, b in zip(v, beta.coeffs))

    seen = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for imgs in frontier:
            for i in levi:
                imgs2 = times_simple(imgs, i)
                if imgs2 not in seen:
                    seen[imgs2] = seen[imgs] + (i,)
                    nxt.append(imgs2)
        frontier = nxt
    elements = {}  # word of w -> images under w
    for imgs, word in seen.items():
        if all(min(imgs[j - 1]) >= 0 for j in range(1, rs.rank + 1) if j not in pair.sigma_q):
            w_word = tuple(reversed(word))  # w = v^{-1}
            w_imgs = identity
            for g in w_word:
                w_imgs = times_simple(w_imgs, g)
            elements[w_word] = w_imgs
    words = sorted(elements, key=lambda w: (len(w), w))
    connecting = {}
    for k in range(len(words) - 1):
        source, target = elements[words[k]], elements[words[k + 1]]
        for beta in rs.positive_roots:
            if all(s_beta(beta, v) == t for v, t in zip(source, target)):
                connecting[k] = beta.coeffs
                break
    is_chain = [len(w) for w in words] == list(range(len(words))) and len(connecting) == len(words) - 1
    return words, connecting, is_chain


def _nested_pairs(type_tag, rank):
    for q_mask in itertools.product((0, 1), repeat=rank):
        sq = [i for i, b in zip(range(1, rank + 1), q_mask) if b]
        for p_mask in itertools.product((0, 1), repeat=len(sq)):
            sp = [i for i, b in zip(sq, p_mask) if b]
            yield _pair(rank, sq, sp, type_tag)


def _p_dominant_source(pair, rng):
    """A seeded label crossed at sigma_p, >= 0 at the other nodes."""
    rs = pair.rs
    nodes = range(1, rs.rank + 1)
    coeffs = [rng.randint(-4, 4) if i in pair.sigma_p else rng.randint(0, 4) for i in nodes]
    marks = ",".join("x" if i in pair.sigma_p else "o" for i in nodes)
    return parse_label(f"{rs.type_tag}{rs.rank}[{marks}]({','.join(map(str, coeffs))})")


def test_hasse_matches_brute_force_reference():
    """Words and chain shape against exhaustion; on chains every order equals
    <lambda_k + rho, beta_k^vee> with beta_k the reference's connecting root
    and the pairing of the symmetrized-form reference."""
    diagrams = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("C", 2), ("C", 3), ("D", 3), ("D", 4)]
    rng = random.Random(47)
    checked = chains = 0
    for type_tag, rank in diagrams:
        for pair in _nested_pairs(type_tag, rank):
            hd = relative_hasse(pair)
            words, connecting, is_chain = _reference_hasse(pair)
            where = (type_tag, rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
            assert [w.gens for w in hd.elements] == words, where
            assert hd.is_chain == is_chain, where
            if is_chain:
                assert _connecting_roots(hd) == list(connecting.values()), where
                seq = relative_bgg_sequence(_p_dominant_source(pair, rng), pair)
                rho = pair.rs.rho.coeffs
                for k, entry in enumerate(seq.entries[:-1]):
                    lam_rho = tuple(a + b for a, b in zip(entry.label.coeffs.coeffs, rho))
                    want = pairing_reference(lam_rho, connecting[k], pair.rs.cartan)
                    assert entry.order_to_next == want, (where, k)
                assert seq.entries[-1].order_to_next is None
                chains += 1
            checked += 1
    assert (checked, chains) == (300, 186)


def test_hasse_size_closed_form_matches_walk():
    diagrams = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
                ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("D", 5)]
    checked = 0
    for type_tag, rank in diagrams:
        for pair in _nested_pairs(type_tag, rank):
            where = (type_tag, rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
            assert hasse_size(pair) == len(relative_hasse(pair).elements), where
            checked += 1
    assert checked == 948


def test_hasse_size_cap_boundary():
    assert hasse_size(_pair(15, {1, 15}, {1}, "B")) == 2**14 <= MAX_HASSE_ELEMENTS
    assert hasse_size(_pair(16, {1, 16}, {1}, "B")) == 2**15 > MAX_HASSE_ELEMENTS
    assert hasse_size(_pair(6, range(1, 7), (), "D")) == 2**5 * 720
    assert hasse_size(_pair(5, {5}, (), "C")) == 2**5
