"""Torsion-admissibility verdicts on catalog and synthetic supports."""

import itertools
import random

import pytest
from common import (
    NEG_BIDEGREES,
    OUT_BIDEGREES,
    all_pairs,
    check_strict_implies_non_strict,
    check_torsion_monotonicity,
    legendrean_pair,
    make_pair,
    random_support,
)
from hypothesis import given, settings, strategies as st

from relbgg import (
    Bidegree,
    TorsionComponent,
    TorsionSupport,
    bigrade,
    catalog,
    corollary_33_check,
    involutivity_check,
    theorem_322_check,
)
from relbgg.grading import in_q
from relbgg.roots import MAX_RANK
from relbgg.torsion import support_from_json, support_to_json


def test_legendrean_full_support_fails_both_parts():
    geom = catalog("legendrean(2)")
    cor = corollary_33_check(geom.support, geom.pair)
    assert not cor.part1 and not cor.part2


def test_empty_support_passes_everything():
    empty = TorsionSupport(components=frozenset())
    geom = catalog("path-geometry(2)")
    assert involutivity_check(empty).ok
    cor = corollary_33_check(empty, geom.pair)
    assert cor.part1 and cor.part2


def _every_component():
    """Every component with inputs in NEG_BIDEGREES and output in OUT_BIDEGREES."""
    return frozenset(
        itertools.starmap(
            TorsionComponent, itertools.product(NEG_BIDEGREES, NEG_BIDEGREES, OUT_BIDEGREES)
        )
    )


def test_curvature_components_are_ignored():
    geom = catalog("legendrean(3)", assume_involutive_f=True)
    curvature = [c for c in geom.support.components if in_q(c.out)]
    assert [c.tag for c in curvature] == ["E*⊗F*⊗L(E,E)"]
    # A curvature output lies in q, so no verdict can flag it: not alone at any
    # level, and not next to the torsion of a random support.
    curvatures = sorted(c for c in _every_component() if in_q(c.out))
    assert {c.out for c in curvatures} == {(0, 0), (1, 0), (0, 1)}
    for c in curvatures:
        ts = TorsionSupport(components=frozenset({c}))
        assert involutivity_check(ts).ok
        for ip in range(-3, 1):
            assert theorem_322_check(ts, ip).ok
            assert ip == 0 or theorem_322_check(ts, ip, strict=True).ok
    pair = legendrean_pair(4)
    rng = random.Random(39)
    for _ in range(100):
        ts = random_support(rng)
        more = TorsionSupport(components=ts.components | {rng.choice(curvatures)})
        assert corollary_33_check(more, pair) == corollary_33_check(ts, pair)


def _one_component(in1, in2, out):
    """The support of one torsion component, its bidegrees given as pairs."""
    comp = TorsionComponent(in1=Bidegree(*in1), in2=Bidegree(*in2), out=Bidegree(*out))
    return TorsionSupport(components=frozenset({comp}))


def test_involutivity_boundary_is_first_index_zero():
    """Two relative directions may bracket into first index 0, not below."""
    assert involutivity_check(_one_component((0, -1), (0, -1), (0, -2))).ok
    assert not involutivity_check(_one_component((0, -1), (0, -1), (-1, 0))).ok


def test_part2_requires_involutivity_without_a_strict_level():
    """With sigma_p empty every first index is 0, so no strict level exists
    and only involutivity can fail part 2."""
    ts = _one_component((0, -1), (0, -1), (-1, 0))
    cor = corollary_33_check(ts, make_pair(4, {1, 2}, ()))
    assert list(cor.per_level) == [0]
    assert not cor.involutivity.ok and not cor.part2


def test_boundary_case_strict_vs_non_strict():
    ts = _one_component((0, -1), (-1, 0), (-1, -1))
    assert theorem_322_check(ts, -1, strict=False).ok
    assert not theorem_322_check(ts, -1, strict=True).ok


def test_theorem_checks_validate_i_prime():
    ts = TorsionSupport(components=frozenset())
    with pytest.raises(ValueError):
        theorem_322_check(ts, 1, strict=False)
    with pytest.raises(ValueError):
        theorem_322_check(ts, 0, strict=True)


def test_component_validation():
    with pytest.raises(ValueError):
        TorsionComponent(in1=Bidegree(0, 1), in2=Bidegree(-1, 0), out=Bidegree(0, -1))
    with pytest.raises(ValueError):
        TorsionComponent(in1=Bidegree(1, -1), in2=Bidegree(-1, 0), out=Bidegree(0, -1))


def test_catalog_parser():
    assert catalog("legendrean(4)").pair.rs.rank == 5
    assert catalog("path-geometry(2)").support.geometry_tag == "path-geometry(2)"
    with pytest.raises(ValueError):
        catalog("legendrean[3]")
    with pytest.raises(ValueError):
        catalog("spheres(2)")
    with pytest.raises(ValueError, match=r"catalog path-geometry\(3\) has no row"):
        catalog("path-geometry(3)", assume_involutive_f=True)


def test_support_json_round_trip():
    support = catalog("legendrean(3)").support
    data = support_to_json(support)
    again = support_from_json(data)
    assert again.components == support.components
    assert sorted(data) == ["components", "geometry_tag"]


def test_support_json_with_retired_kappa_key_is_accepted():
    data = support_to_json(catalog("legendrean(3)", assume_involutive_f=True).support)
    for kappa in (True, False, None):
        again = support_from_json({**data, "kappa_vanishes_on_relative_pair": kappa})
        assert support_to_json(again) == data


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("key", ["in1", "in2", "out"])
@pytest.mark.parametrize("bad, shown", [([0], "[0]"), ([0, True], "[0, True]"), ("x", "'x'")])
def test_bad_bidegree_message_names_its_component_and_key(k, key, bad, shown):
    """Each bad pair is named by its component's index and key, with the value as given."""
    components = [{"in1": [0, -1], "in2": [-1, 0], "out": [0, 0]} for _ in range(2)]
    components[k][key] = bad
    with pytest.raises(ValueError) as exc:
        support_from_json({"components": components})
    assert str(exc.value) == f"support component {k} {key} must be a pair of integers, got {shown}"


# -- randomized structure ----------------------------------------------------

def test_monotone_under_adding_components():
    check_torsion_monotonicity(7, 300)


def test_strict_implies_non_strict_and_part2_implies_part1():
    check_strict_implies_non_strict(13, 300)


@pytest.mark.parametrize(
    "pair, lowest",
    [
        (make_pair(4, {1, 2}, ()), 0),
        (legendrean_pair(4), -1),
        (make_pair(4, {2, 4}, {4}, "B"), -2),
    ],
    ids=["sigma-p-empty", "legendrean-4", "B4-deeper"],
)
def test_corollary_33_is_the_conjunction_of_its_levels(pair, lowest):
    """per_level runs over the first indices lowest..0 with theorem 3.2.2's two
    verdicts (strict is True at level 0); part1 and part2 are their conjunctions."""
    bg = bigrade(pair)
    assert min(bd.i_prime for bd in bg.dims) == lowest
    rng = random.Random(33)
    # the support of every component flags many at once, in hash order
    full = TorsionSupport(components=_every_component())
    for ts in [full] + [random_support(rng) for _ in range(100)]:
        cor = corollary_33_check(ts, pair)
        assert list(cor.per_level) == list(range(lowest, 1))
        for ip, entry in cor.per_level.items():
            strict = ip == 0 or theorem_322_check(ts, ip, strict=True).ok
            assert entry == (theorem_322_check(ts, ip).ok, strict)
        # every verdict lists its violators in the components' sort order
        verdicts = [involutivity_check(ts)]
        verdicts += [theorem_322_check(ts, ip) for ip in cor.per_level]
        verdicts += [theorem_322_check(ts, ip, strict=True) for ip in cor.per_level if ip < 0]
        for verdict in verdicts:
            assert verdict.violators == tuple(sorted(verdict.violators))
        assert cor.part1 == all(ok1 for ok1, _ in cor.per_level.values())
        assert cor.part2 == (
            involutivity_check(ts).ok and all(ok2 for _, ok2 in cor.per_level.values())
        )


def _graded_depth(pair):
    """The lowest first index over every bidegree of the bigrading: the
    reference for the levels, which corollary_33_check reads off the pair."""
    return min(bd.i_prime for bd in bigrade(pair).dims)


def _levels(pair):
    return list(corollary_33_check(TorsionSupport(components=frozenset()), pair).per_level)


def test_levels_start_at_the_graded_depth_on_every_nested_pair():
    """The levels run from minus the sigma_p-height of the highest root to 0,
    as the bigrading's lowest first index says, on all 4,350 nested pairs of
    A1-A6, B2-B6, C2-C6 and D3-D6."""
    checked = 0
    for tag, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 7):
            for pair in all_pairs(rank, tag):
                where = (tag, rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
                assert _levels(pair) == list(range(_graded_depth(pair), 1)), where
                checked += 1
    assert checked == 4350


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_levels_start_at_the_graded_depth_up_to_rank_cap(data):
    tag, lo = data.draw(st.sampled_from([("A", 1), ("B", 2), ("C", 2), ("D", 3)]))
    rank = data.draw(st.integers(lo, MAX_RANK))
    sq = data.draw(st.frozensets(st.integers(1, rank)))
    sp = data.draw(st.frozensets(st.sampled_from(sorted(sq)))) if sq else frozenset()
    pair = make_pair(rank, sq, sp, tag)
    assert _levels(pair) == list(range(_graded_depth(pair), 1))


def test_verdicts_ignore_input_order():
    for in1, in2, out in itertools.product(NEG_BIDEGREES, NEG_BIDEGREES, OUT_BIDEGREES):
        a = TorsionComponent(in1=in1, in2=in2, out=out)
        b = TorsionComponent(in1=in2, in2=in1, out=out)
        assert a == b
        ts_a = TorsionSupport(components=frozenset({a}))
        ts_b = TorsionSupport(components=frozenset({b}))
        assert involutivity_check(ts_a) == involutivity_check(ts_b)
