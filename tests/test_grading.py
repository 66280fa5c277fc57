"""Bigrading, filtration and rank checks.

The two geometric families used throughout:
    - contact-type blocks 1, n, 1:  sigma_q = {1, n+1}, sigma_p = {1}
    - path-type blocks 1, 1, n:     sigma_q = {1, 2},   sigma_p = {1}

Core claims:
    - on every nested pair of A1-A5, B2-B4, C2-C4 and D3-D5, each component
      of bigrade holds exactly the roots of that bidegree in the epsilon-basis
      model of tests/weyl_model.py, whose roots do not come from the engine
    - profile, filtration and ranks partition and telescope as defined;
      acceptance criterion 7 checks the rank telescoping on every pair
"""

import random
import time

import pytest
from common import all_pairs, legendrean_pair, listed_roots, make_pair, path_pair
from weyl_model import WeylModel

from relbgg import (
    Bidegree,
    Bigrading,
    ParabolicPair,
    RootSystem,
    bigrade,
    build_root_system,
    filtration,
    subalgebra_profile,
    tangent_ranks,
)
from relbgg.roots import MAX_RANK


# -- sigma height ------------------------------------------------------------

def test_sigma_height_read_offs():
    rs = build_root_system("A", 4)
    at = rs.positive_roots.index((1, 1, 0, 0))
    assert rs.sigma_heights({1})[at] == 1
    assert rs.sigma_heights({1, 2})[at] == 2
    assert (-1, -1, -1, -1) in listed_roots(bigrade(make_pair(4, {1, 2}, {1})).root_spaces()[(-1, -1)])


# -- bigrading ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_legendrean_component_dims(n):
    bg = bigrade(legendrean_pair(n))
    assert bg.dims.get(Bidegree(-1, 0), 0) == n
    assert bg.dims.get(Bidegree(0, -1), 0) == n
    assert bg.dims.get(Bidegree(-1, -1), 0) == 1
    assert sorted(bg.dims) == [
        (-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1),
    ]


@pytest.mark.parametrize("n", range(2, 6))
def test_path_component_dims(n):
    bg = bigrade(path_pair(n))
    assert bg.dims.get(Bidegree(-1, 0), 0) == 1
    assert bg.dims.get(Bidegree(0, -1), 0) == n
    assert bg.dims.get(Bidegree(-1, -1), 0) == n


def test_equal_sets_collapse_to_single_grading():
    bg = bigrade(make_pair(4, {2}, {2}))
    assert all(bd.i_dprime == 0 for bd in bg.dims)
    assert list(bigrade(make_pair(3, set(), set())).dims) == [(0, 0)]


@pytest.mark.parametrize("bd", [(1, -1), (-1, 1), (9, 9), (-9, -9)])
def test_absent_bidegree_has_no_roots(bd):
    bg = bigrade(legendrean_pair(3))
    assert bd not in bg.dims
    assert bd not in bg.root_spaces()
    assert bg.dims.get(bd, 0) == 0


def test_dims_come_from_packed_heights_alone(monkeypatch):
    """build_root_system and bigrade never build the root listing, and the
    reports on dims follow suit; the listing itself slices its rows out of
    the packed columns, so nothing unpacks the roots into tuples."""
    pairs = [make_pair(24, {1, 8, 24}, {8}, "B"), make_pair(6, {1, 2, 6}, {1}),
             make_pair(5, {2, 5}, {2, 5}, "D")]
    want, spaces = [], []
    for pair in pairs:
        bg = bigrade(pair)
        want.append((bg, filtration(bg), tangent_ranks(bg)))
        spaces.append(bg.root_spaces())

    def refuse(*args):
        raise AssertionError("a refused root read")

    monkeypatch.setattr(RootSystem, "positive_roots", property(refuse))
    assert [bigrade(pair).root_spaces() for pair in pairs] == spaces
    monkeypatch.setattr(Bigrading, "root_spaces", refuse)
    for pair, expected in zip(pairs, want):
        rs = build_root_system(pair.rs.type_tag, pair.rs.rank)
        bg = bigrade(ParabolicPair(rs, pair.sigma_q, pair.sigma_p))
        assert (bg, filtration(bg), tangent_ranks(bg)) == expected
    with pytest.raises(AssertionError):
        bg.root_spaces()


def test_bigrade_matches_reference_on_every_nested_pair():
    diagrams = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
                ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("D", 5)]
    checked = 0
    for type_tag, rank in diagrams:
        for pair in all_pairs(rank, type_tag):
            where = (type_tag, rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
            bg = bigrade(pair)
            ref = WeylModel(type_tag, rank).components(pair.sigma_q, pair.sigma_p)
            assert set(bg.dims) == set(ref), where
            assert all(type(bd) is Bidegree for bd in bg.dims), where
            spaces = bg.root_spaces()
            assert set(spaces) == set(ref), where
            for bd, roots in ref.items():
                assert listed_roots(spaces[bd]) == tuple(roots), (where, bd)
                assert all(type(r) is bytes for half in spaces[bd] for r in half), (where, bd)
                assert bg.dims[bd] == len(roots) + (rank if bd == (0, 0) else 0), (where, bd)
            checked += 1
    assert checked == 948


def test_sliced_rows_equal_the_tuple_view_at_every_rank():
    """At every A-D type and rank up to MAX_RANK, on three seeded nested pairs,
    each component of root_spaces, whose rows are sliced from the packed
    columns, is ``positive_roots`` bucketed by (sigma_p-height,
    (sigma_q - sigma_p)-height), each bucket sorted as coefficient tuples and
    the negated half reversed; the 372 listings take well under 2 s."""
    rng, elapsed, checked = random.Random(44), 0.0, 0
    for type_tag, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(low, MAX_RANK + 1):
            rs = build_root_system(type_tag, rank)
            roots = rs.positive_roots
            for _ in range(3):
                sigma_q = {i for i in range(1, rank + 1) if rng.random() < 0.5}
                sigma_p = {i for i in sigma_q if rng.random() < 0.5}
                buckets = {}
                for root in roots:
                    ip = sum(root[i - 1] for i in sigma_p)
                    buckets.setdefault((ip, sum(root[i - 1] for i in sigma_q) - ip), []).append(root)
                bg = bigrade(ParabolicPair(rs, sigma_q, sigma_p))
                start = time.perf_counter()
                spaces = bg.root_spaces()
                elapsed += time.perf_counter() - start
                assert set(spaces) == set(bg.dims), (type_tag, rank, sigma_q, sigma_p)
                for bd, rows in spaces.items():
                    negated, positive = (sorted(buckets.get(key, ())) for key in (-bd, bd))
                    want = (tuple(map(bytes, negated[::-1])), tuple(map(bytes, positive)))
                    assert rows == want, (type_tag, rank, sigma_q, sigma_p, bd)
                checked += 1
    assert checked == 372
    assert elapsed < 2


@pytest.mark.parametrize("rank", range(1, 5))
def test_partition_duality_and_total_dim(rank):
    for pair in all_pairs(rank):
        bg = bigrade(pair)
        assert bg.dim_g == rank * rank + 2 * rank
        spaces = bg.root_spaces()
        root_count = sum(len(listed_roots(spaces[bd])) for bd in bg.dims)
        assert root_count == 2 * len(WeylModel("A", rank).positive)
        for bd, dim in bg.dims.items():
            assert bg.dims.get(Bidegree(-bd.i_prime, -bd.i_dprime), 0) == dim


# -- subalgebra profile ------------------------------------------------------

def test_legendrean_profile_dims():
    prof = subalgebra_profile(bigrade(legendrean_pair(3)))
    assert prof["q"].dim == 24 - 7 == 17
    assert prof["q_0"].bidegrees == ((0, 0),)


def test_path_profile_dims():
    prof = subalgebra_profile(bigrade(path_pair(3)))
    assert prof["p_plus"].dim == 4


def test_collapsed_profile():
    prof = subalgebra_profile(bigrade(make_pair(4, {2}, {2})))
    assert prof["q"].dim == prof["p"].dim
    assert prof["q_plus"].dim == prof["p_plus"].dim


@pytest.mark.parametrize("rank", range(1, 5))
def test_profile_partitions(rank):
    for pair in all_pairs(rank):
        prof = subalgebra_profile(bigrade(pair))
        assert prof["p"].dim == prof["p_0"].dim + prof["p_plus"].dim
        assert prof["q"].dim == prof["q_0"].dim + prof["q_plus"].dim


# -- filtration --------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_legendrean_filtration_module(n):
    rep = filtration(bigrade(legendrean_pair(n)))
    assert tuple(rep.components) == tuple(rep.modules) == (-1, 0, 1)
    mod = rep.modules[-1]
    assert mod.dim == n + 1
    assert mod.filtration_steps == ((-1, n + 1), (0, n))


@pytest.mark.parametrize("n", range(2, 6))
def test_path_filtration_has_line_step(n):
    mod = filtration(bigrade(path_pair(n))).modules[-1]
    assert mod.dim == n + 1
    assert mod.filtration_steps == ((-1, n + 1), (0, 1))


def test_two_step_filtration():
    rep = filtration(bigrade(make_pair(4, {1, 2, 3}, {1, 3})))
    assert tuple(rep.components) == tuple(rep.modules) == (-2, -1, 0, 1, 2)
    assert rep.modules[-1].dim > 0 and rep.modules[-2].dim > 0


def test_filtration_nesting_and_monotone_steps():
    for pair in all_pairs(3):
        bg = bigrade(pair)
        rep = filtration(bg)
        ips = list(rep.components)
        assert set(rep.components[ips[0]]) == set(bg.dims)
        for lo, hi in zip(ips, ips[1:]):
            assert set(rep.components[hi]) < set(rep.components[lo])
        for mod in rep.modules.values():
            dims = [d for _, d in mod.filtration_steps]
            assert dims == sorted(dims, reverse=True)
            assert dims[0] == mod.dim


def test_filtration_piece_one_is_p_plus():
    bg = bigrade(legendrean_pair(3))
    rep = filtration(bg)
    assert set(rep.components[1]) == set(subalgebra_profile(bg)["p_plus"].bidegrees)


# -- tangent ranks -----------------------------------------------------------

def test_legendrean_ranks_n2():
    rep = tangent_ranks(bigrade(legendrean_pair(2)))
    assert rep.dim_M == 5
    assert rep.rank_T_rho == 2
    assert rep.ranks_V == {-1: 3}


def test_collapsed_ranks():
    rep = tangent_ranks(bigrade(make_pair(4, {2}, {2})))
    assert rep.rank_T_rho == 0
    assert sum(rep.ranks_V.values()) + rep.rank_T_rho == rep.dim_M


def test_ranks_require_nonempty_sigma_p():
    with pytest.raises(ValueError):
        tangent_ranks(bigrade(make_pair(3, {1}, set())))


def test_pair_validation():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        ParabolicPair(rs=rs, sigma_q=frozenset({1}), sigma_p=frozenset({2}))
    with pytest.raises(ValueError):
        ParabolicPair(rs=rs, sigma_q=frozenset({5}), sigma_p=frozenset())
