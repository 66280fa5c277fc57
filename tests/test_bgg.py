"""Relative sequence engine: Hasse diagrams, shifted action, orders.

The pinned convention (rightmost generator first, minimal representatives
with w^{-1} positive on the uncrossed sigma_q nodes, full rho shift) is
locked in by the worked sequences of tests/test_acceptance.py (criteria
1-4) and by the model comparisons below.

Core claims:
    - the Hasse words, chain shapes, labels and orders of every nested pair
      of A1-A4, B2-B3, C2-C3 and D3-D4, and of sampled rank-5 pairs, are those
      of the epsilon-basis model of tests/weyl_model.py, which does not read
      the engine's Cartan matrix; so is affine_act on random B, C, D words
    - the walk's length profile on every nested pair of A1-A5, B2-B4, C2-C4
      and D3-D5 is Macdonald's product over the model's root heights
    - every other check is structural or derived from an independent identity
"""

import random
import re
import time

import pytest
from common import all_pairs, label_text, legendrean_pair, make_pair, p_dominant_coeffs, path_pair
from hypothesis import given, seed, settings, strategies as st
from weyl_model import WeylModel, apply

from relbgg import (
    DynkinLabel,
    ParabolicPair,
    Weight,
    WeylWord,
    affine_act,
    build_root_system,
    parse_label,
    reflect,
    relative_bgg_sequence,
    relative_hasse,
    validate_label,
)
from relbgg import bgg
from relbgg.bgg import MAX_HASSE_ELEMENTS, _levi_quotient
from relbgg.grading import bigrade, tangent_ranks


# -- Hasse diagrams ----------------------------------------------------------

def test_path_hasse_words():
    hd = relative_hasse(path_pair())
    assert [w.gens for w in hd.elements] == [(), (2,), (2, 3), (2, 3, 4)]
    assert hd.is_chain
    m = WeylModel("A", 4)
    assert [m.coords(beta) for beta in m.chain_roots([w.gens for w in hd.elements])] == [
        (0, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 1, 1, 1),
    ]


def test_equal_sets_give_identity_diagram():
    hd = relative_hasse(make_pair(3, {1}, {1}))
    assert [w.gens for w in hd.elements] == [()]
    assert hd.is_chain


def test_legendrean_hasse_sizes_and_lengths():
    hd = relative_hasse(legendrean_pair(2))
    assert [len(w.gens) for w in hd.elements] == [0, 1, 2]
    assert len(hd.elements) == 3


def test_rank_one_relative_directions_give_two_bundles():
    # sigma_q = {1,2}, sigma_p = {2}: a single operator in every sequence
    for n in range(2, 5):
        hd = relative_hasse(make_pair(n + 1, {1, 2}, {2}))
        assert len(hd.elements) == 2


def test_broken_shifted_action_trips_q_validity_guard(monkeypatch):
    import relbgg.bgg as bgg

    shifted = bgg._shifted

    def wrong_order(cols, gens, mu):  # the word's letters applied left to right
        return shifted(cols, gens[::-1], mu)

    monkeypatch.setattr(bgg, "_shifted", wrong_order)
    src = parse_label("A4[x,o,o,o](-2,1,0,0)")
    with pytest.raises(bgg.InternalCheckError, match="entry 2 produced the Q-invalid label"):
        relative_bgg_sequence(src, path_pair())


def test_non_linear_diagram_detected():
    hd = relative_hasse(make_pair(4, {1, 3}, {1}))
    assert len(hd.elements) == 6
    assert [len(w.gens) for w in hd.elements] == [0, 1, 2, 2, 3, 4]
    assert not hd.is_chain


@pytest.mark.parametrize("sq, n", [({1, 2}, 3), ({1, 3}, 4)], ids=["chain", "non-chain"])
def test_walked_lengths_must_run_over_zero_to_n(monkeypatch, sq, n):
    """A closed form that reports N + 1 for the longest length, with the size
    unchanged, leaves the walk one length short: relative_hasse names the input."""
    pair = make_pair(4, sq, {1})
    assert _levi_quotient(pair)[0] == n
    monkeypatch.setattr(bgg, "_levi_quotient", lambda pair: (n + 1, _levi_quotient(pair)[1]))
    where = f"over the lengths 0..{n + 1}, on A4 sigma_q={sorted(sq)} sigma_p=[1]"
    with pytest.raises(bgg.InternalCheckError, match=re.escape(where)):
        relative_hasse(pair)


# -- shifted action ----------------------------------------------------------

def test_affine_act_worked_examples():
    rs = build_root_system("A", 4)
    lam = Weight((-2, 1, 0, 0))
    assert affine_act(WeylWord((2,)), lam, rs) == Weight((0, -3, 2, 0))
    assert affine_act(WeylWord((2, 3)), lam, rs) == Weight((1, -4, 1, 1))
    assert affine_act(WeylWord(()), lam, rs) == lam


BCD_DIAGRAMS = [(t, n) for t, lo in (("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 9)]


@pytest.mark.parametrize("type_tag, rank", BCD_DIAGRAMS)
def test_affine_act_matches_dense_reference_off_type_a(type_tag, rank):
    """affine_act against WeylModel.label (tests/weyl_model.py), the model's
    w(lambda + rho) - rho, and the group law.  Type A's Cartan matrix is
    symmetric, so only B and C tell its rows from its columns; D adds the fork."""
    rs, m = build_root_system(type_tag, rank), WeylModel(type_tag, rank)
    rng = random.Random(f"{type_tag}{rank}")
    for _ in range(60):
        gens = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
        cut = rng.randint(0, len(gens))
        lam = Weight(tuple(rng.randint(-8, 8) for _ in range(rank)))
        got = affine_act(WeylWord(gens), lam, rs)
        assert got.coeffs == m.label(gens, lam.coeffs), (gens, lam)
        v = affine_act(WeylWord(gens[cut:]), lam, rs)
        assert affine_act(WeylWord(gens[:cut]), v, rs) == got, (gens, cut, lam)


@pytest.mark.parametrize("type_tag, rank", [("A", 4), ("B", 3), ("C", 4), ("D", 5)])
def test_results_survive_a_cache_clear(type_tag, rank):
    """A system built before ``cache_clear()`` and its rebuild are equal but
    distinct objects, and reflect, affine_act and relative_hasse agree on them."""
    old = build_root_system(type_tag, rank)
    build_root_system.cache_clear()
    new = build_root_system(type_tag, rank)
    assert new == old and new is not old
    rng = random.Random(f"clear:{type_tag}{rank}")
    for _ in range(30):
        gens = WeylWord(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8))))
        lam = Weight(tuple(rng.randint(-8, 8) for _ in range(rank)))
        assert affine_act(gens, lam, old) == affine_act(gens, lam, new), (gens, lam)
        for i in range(1, rank + 1):
            assert reflect(old, i, lam) == reflect(new, i, lam), (i, lam)
    old_hd, new_hd = (relative_hasse(ParabolicPair(rs, frozenset({1, rank}), frozenset({1})))
                      for rs in (old, new))
    assert len(old_hd.elements) > 1
    assert (old_hd.elements, old_hd.is_chain) == (new_hd.elements, new_hd.is_chain)


@pytest.mark.parametrize("type_tag, rank", [("A", 3), ("B", 3), ("C", 4), ("D", 4)])
def test_affine_act_and_reflect_refuse_bad_input(type_tag, rank):
    """A letter outside 1..rank or a weight of another length is a ValueError:
    letter 0 must not reflect at the last node through index -1."""
    rs = build_root_system(type_tag, rank)
    lam = Weight(tuple(range(rank)))
    for letter in (0, rank + 1):
        for word in ((letter,), (1, letter), (letter, 2)):
            with pytest.raises(ValueError, match="out of range"):
                affine_act(WeylWord(word), lam, rs)
        with pytest.raises(ValueError, match="out of range"):
            reflect(rs, letter, lam)
    for bad in (Weight(lam.coeffs[:-1]), Weight(lam.coeffs + (1,))):
        for word in ((), (1,), (2, 1)):
            with pytest.raises(ValueError, match="does not match rank"):
                affine_act(WeylWord(word), bad, rs)
        with pytest.raises(ValueError, match="does not match rank"):
            reflect(rs, 1, bad)


# -- sequences ---------------------------------------------------------------

def test_single_bundle_sequence():
    seq = relative_bgg_sequence(parse_label("A1[x](0)"), make_pair(1, {1}, {1}))
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


@pytest.mark.parametrize(
    "label, pair",
    [
        ("A4[x,o,o,o](1,1,1,1)", make_pair(4, {1, 3}, {1})),
        ("B15[x" + ",o" * 14 + "](0" + ",0" * 14 + ")", make_pair(15, {1, 15}, {1}, "B")),
        ("D5[o,o,o,o,o](0,0,0,0,0)", make_pair(5, {1, 2, 3, 4, 5}, (), "D")),
    ],
    ids=["A4", "B15", "D5"],
)
def test_non_chain_is_refused_before_the_walk(monkeypatch, label, pair):
    def no_walk(pair):
        raise AssertionError("relative_hasse walked a diagram that is not a chain")

    monkeypatch.setattr(bgg, "relative_hasse", no_walk)
    with pytest.raises(ValueError, match="not linear"):
        relative_bgg_sequence(parse_label(label), pair)


def test_sequence_evaluates_the_closed_form_once(monkeypatch):
    """A chain request evaluates _levi_quotient once and hands the value to the
    module's relative_hasse, whose words are the entries' (so a wrapper set on
    bgg.relative_hasse, as a benchmark tracer does, sees every walk); a refused
    non-chain evaluates it once and walks nothing."""
    quotient, walk, evaluated, walked = bgg._levi_quotient, bgg.relative_hasse, [], []

    def counted_quotient(pair):
        evaluated.append(pair)
        return quotient(pair)

    def counted_walk(*args, **kwargs):
        walked.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(bgg, "_levi_quotient", counted_quotient)
    monkeypatch.setattr(bgg, "relative_hasse", counted_walk)
    seq = relative_bgg_sequence(parse_label("A4[x,o,o,o](-2,1,0,0)"), path_pair())
    assert (evaluated, walked) == ([path_pair()], [path_pair()])
    assert [e.word for e in seq.entries] == list(walk(path_pair()).elements)
    evaluated.clear()
    walked.clear()
    with pytest.raises(ValueError, match="not linear"):
        relative_bgg_sequence(parse_label("A4[x,o,o,o](1,1,1,1)"), make_pair(4, {1, 3}, {1}))
    assert (evaluated, walked) == ([make_pair(4, {1, 3}, {1})], [])


def test_passed_closed_form_is_checked_against_the_walk():
    """relative_hasse walks with the (N, size) it is given and still names the
    input when the walk disagrees with it."""
    pair = make_pair(4, {1, 2}, {1})
    n, size = _levi_quotient(pair)
    assert relative_hasse(pair, closed_form=(n, size)) == relative_hasse(pair)
    with pytest.raises(bgg.InternalCheckError, match=re.escape(f"= {size + 1} over the lengths 0..{n}")):
        relative_hasse(pair, closed_form=(n, size + 1))
    with pytest.raises(ValueError, match="above the supported maximum"):
        relative_hasse(pair, closed_form=(n, MAX_HASSE_ELEMENTS + 1))


# -- structural invariants ---------------------------------------------------

def _chain_pairs(rng):
    """A random chain pair of rank 2-5: path, contact, tilde or collapsed."""
    rank = rng.randint(2, 5)
    shapes = {"path": ({1, 2}, {1}), "contact": ({1, rank}, {1}),
              "tilde": ({1, 2}, {2}), "collapsed": ({1}, {1})}
    return make_pair(rank, *shapes[rng.choice(list(shapes))])


def test_sequence_entries_are_q_dominant_for_random_sources():
    """Each entry is Q-dominant, and its label, built without the constructor's
    checks, is the DynkinLabel the constructor builds from the shifted action."""
    rng = random.Random(23)
    for _ in range(300):
        pair = _chain_pairs(rng)
        src = _p_dominant_source(pair, rng.randint, 6)
        seq = relative_bgg_sequence(src, pair)
        assert len(seq.entries) == len(relative_hasse(pair).elements)
        for entry in seq.entries:
            assert validate_label(entry.label, "Q", pair).ok
            built = DynkinLabel(pair.rs, pair.sigma_q, affine_act(entry.word, src.coeffs, pair.rs))
            assert type(entry.label) is DynkinLabel and entry.label == built
            assert type(entry.label.crossed) is frozenset


def test_orders_match_source_coefficients():
    """Independent identity: pairing is Weyl-invariant, so the order between
    steps k and k+1 equals <src + rho, w_k^{-1}(beta_k)> and w_k^{-1}(beta_k)
    must be a simple root of the Levi of p."""
    rng = random.Random(31)
    for _ in range(100):
        pair = _chain_pairs(rng)
        rs, m = pair.rs, WeylModel("A", pair.rs.rank)
        hd = relative_hasse(pair)
        for k, beta in enumerate(m.chain_roots([w.gens for w in hd.elements])):
            wk = hd.elements[k]
            back = m.coords(apply(m.element(wk.gens[::-1]), beta))  # w_k^{-1}(beta_k)
            assert sum(back) == 1 and all(c in (0, 1) for c in back)
            j = back.index(1) + 1
            assert j not in pair.sigma_p
            lam = Weight(tuple(rng.randint(0, 5) for _ in range(rs.rank)))
            lam_k = affine_act(wk, lam, rs)
            assert m.pairing(m.weight([c + 1 for c in lam_k.coeffs]), beta) == lam.coeffs[j - 1] + 1


# -- against the model -------------------------------------------------------

def _p_dominant_source(pair, randint, bound=4):
    """A label crossed at sigma_p, coefficients in [-bound, bound] there and [0, bound] elsewhere."""
    rs, sp = pair.rs, pair.sigma_p
    return parse_label(label_text(rs.type_tag, rs.rank, sp, p_dominant_coeffs(rs.rank, sp, randint, bound)))


def _check_against_model(pair, src):
    """relative_hasse's words and chain shape against the model; on a chain also
    beta_k = w_k(alpha_i) for w_{k+1} = w_k s_i, and relative_bgg_sequence's labels
    and orders <lambda_k + rho, beta_k^vee>.  Returns whether it is a chain."""
    m, hd = WeylModel(pair.rs.type_tag, pair.rs.rank), relative_hasse(pair)
    words = m.hasse(pair.sigma_q, pair.sigma_p)
    betas = m.chain_roots(words)
    where = (pair.rs.type_tag, pair.rs.rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
    assert [w.gens for w in hd.elements] == words, where
    assert hd.is_chain == (betas is not None), where
    if betas is None:
        return False
    ends = [m.simple[w.gens[-1] - 1] for w in hd.elements[1:]]
    assert betas == [apply(m.element(w), alpha) for w, alpha in zip(words, ends)], where
    seq, lam = relative_bgg_sequence(src, pair), src.coeffs.coeffs
    labels = [m.label(w, lam) for w in words]
    assert [e.label.coeffs.coeffs for e in seq.entries] == labels, where
    orders = [m.pairing(m.weight([c + 1 for c in mu]), beta) for mu, beta in zip(labels, betas)]
    assert [e.order_to_next for e in seq.entries] == orders + [None], where
    return True


def test_hasse_matches_brute_force_reference():
    """Every nested pair of A1-A4, B2-B3, C2-C3 and D3-D4 against the model."""
    diagrams = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("C", 2), ("C", 3), ("D", 3), ("D", 4)]
    rng = random.Random(47)
    checked = chains = 0
    for type_tag, rank in diagrams:
        for pair in all_pairs(rank, type_tag):
            chains += _check_against_model(pair, _p_dominant_source(pair, rng.randint))
            checked += 1
    assert (checked, chains) == (300, 186)


@pytest.mark.parametrize("type_tag", "ABCD")
@seed(5)
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_rank_five_pairs_match_the_model(type_tag, data):
    """Sampled nested pairs of each rank-5 diagram, with P-dominant sources,
    against the model.  The fixed seed keeps the samples when the text changes."""
    sigma_q = data.draw(st.sets(st.integers(1, 5), min_size=1))
    sigma_p = {i for i in sorted(sigma_q) if data.draw(st.booleans())}
    pair = make_pair(5, sigma_q, sigma_p, type_tag)
    _check_against_model(pair, _p_dominant_source(pair, lambda lo, hi: data.draw(st.integers(lo, hi))))


@pytest.mark.parametrize(
    "type_tag, sigma_q, sigma_p, entries",
    [("A", {1}, (), 33), ("B", {1}, (), 64), ("C", {1}, (), 64), ("D", {1, 31, 32}, {31, 32}, 31)],
    ids="ABCD",
)
def test_rank_cap_chain_labels_match_the_model(type_tag, sigma_q, sigma_p, entries):
    """Every label of four chains at the rank cap, from a seeded P-dominant
    source, against the model; their orders are left to
    test_orders_match_source_coefficients' Weyl invariance."""
    pair = make_pair(32, sigma_q, sigma_p, type_tag)
    src = _p_dominant_source(pair, random.Random(32).randint)
    seq, m = relative_bgg_sequence(src, pair), WeylModel(type_tag, 32)
    assert len(seq.entries) == entries
    for e in seq.entries:
        assert e.label.coeffs.coeffs == m.label(e.word.gens, src.coeffs.coeffs), e.word


def _macdonald_profile(heights):
    """The coefficients of the product over ``heights`` of (1 - t^{h+1}) / (1 - t^h),
    constant term first, by exact integer polynomial division."""
    num, den = [1], [1]
    for h in heights:
        for poly, k in ((num, h + 1), (den, h)):  # poly *= 1 - t^k
            poly += [0] * k
            for j in range(len(poly) - 1 - k, -1, -1):
                poly[j + k] -= poly[j]
    quotient = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quotient))):
        quotient[k], r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0, heights
        for j, d in enumerate(den):
            num[k + j] -= quotient[k] * d
    assert not any(num), heights
    return quotient


def _length_profile(words):
    """How many of ``words`` have each length 0..the longest."""
    profile = [0] * (max(len(w.gens) for w in words) + 1)
    for w in words:
        profile[len(w.gens)] += 1
    return profile


def test_hasse_size_closed_form_matches_walk():
    """On every nested pair of A1-A5, B2-B4, C2-C4 and D3-D5, all under the
    cap, the walk has _levi_quotient's size, and its elements of each length
    number the coefficients of the Poincare polynomial of W_L / W_(L&q)
    (Macdonald 1972): the product of (1 - t^{h+1}) / (1 - t^h) over the
    heights h of the model's roots of sigma_p-height 0 and positive
    sigma_q-height.  A list of the same size with one word moved to another
    length is told apart."""
    diagrams = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
                ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("D", 5)]
    checked = 0
    for type_tag, rank in diagrams:
        roots = WeylModel(type_tag, rank).positive_roots
        for pair in all_pairs(rank, type_tag):
            where = (type_tag, rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
            n, size = _levi_quotient(pair)
            elements = relative_hasse(pair).elements
            assert size == len(elements), where
            heights = [sum(r) for r in roots
                       if not any(r[i - 1] for i in pair.sigma_p) and any(r[i - 1] for i in pair.sigma_q)]
            assert _length_profile(elements) == _macdonald_profile(heights), where
            if pair.sigma_p:  # both count the roots of bidegree (0, i'' > 0)
                assert n == tangent_ranks(bigrade(pair)).rank_T_rho, where
            checked += 1
    assert checked == 948
    words = list(relative_hasse(make_pair(3, {1, 2, 3}, set())).elements)
    assert _length_profile(words) == _macdonald_profile([1, 1, 1, 2, 2, 3]) == [1, 3, 5, 6, 5, 3, 1]
    words[1] = WeylWord(words[1].gens + (2,))  # s_1 becomes s_1 s_2: still 24 words
    assert len(words) == 24
    assert _length_profile(words) == [1, 2, 6, 6, 5, 3, 1] != _macdonald_profile([1, 1, 1, 2, 2, 3])


@pytest.mark.parametrize(
    ("type_tag", "rank", "sq", "sp", "expected"),
    [("B", 15, {1, 15}, {1}, 2**14), ("C", 15, {1, 15}, {1}, 2**14),
     ("A", 32, {9, 15, 19, 23, 26, 30, 31}, {9, 15, 23, 31}, 19_600)],
    ids=["B", "C", "A32"],
)
def test_walk_lists_the_largest_diagram_in_order(type_tag, rank, sq, sp, expected):
    """Under the cap, the walk's list is already sorted by (length, word),
    each word minus its last letter is an earlier element, the lengths run
    over 0..N, and the walk takes under half a second.  B15 and C15
    {1,15}/{1} have 16,384 elements and N = 105; the slowest walk found
    under the cap, A32 {9,15,19,23,26,30,31}/{9,15,23,31}, has 19,600
    elements and N = 35."""
    pair = make_pair(rank, sq, sp, type_tag)
    n, size = _levi_quotient(pair)
    assert size == expected <= MAX_HASSE_ELEMENTS
    start = time.perf_counter()
    hd = relative_hasse(pair)
    assert time.perf_counter() - start < 0.5
    words = list(hd.elements)
    assert len(words) == size
    assert words == sorted(words, key=lambda w: (len(w.gens), w.gens))
    seen = set()
    for w in words:
        assert w.gens == () or w.gens[:-1] in seen, w
        seen.add(w.gens)
    assert sorted({len(w.gens) for w in words}) == list(range(n + 1))


def test_hasse_size_cap_boundary():
    assert _levi_quotient(make_pair(15, {1, 15}, {1}, "B"))[1] == 2**14 <= MAX_HASSE_ELEMENTS
    assert _levi_quotient(make_pair(16, {1, 16}, {1}, "B"))[1] == 2**15 > MAX_HASSE_ELEMENTS
    assert _levi_quotient(make_pair(6, range(1, 7), (), "D"))[1] == 2**5 * 720
    assert _levi_quotient(make_pair(5, {5}, (), "C"))[1] == 2**5
