"""Torsion-admissibility verdicts on catalog and synthetic supports."""

import random

import pytest
from hypothesis import given, strategies as st

from relbgg import (
    Bidegree,
    TorsionComponent,
    TorsionSupport,
    bigrade,
    catalog,
    corollary_33_check,
    involutivity_check,
    legendrean_catalog,
    path_geometry_catalog,
    theorem_322_check,
)
from relbgg.torsion import support_from_json, support_to_json


def test_legendrean_full_support_fails_involutivity():
    geom = legendrean_catalog(3)
    verdict = involutivity_check(geom.support)
    assert not verdict.ok
    assert [c.tag for c in verdict.violators] == ["Λ²F*⊗E"]


def test_legendrean_involutive_f_passes():
    geom = legendrean_catalog(3, assume_involutive_f=True)
    assert involutivity_check(geom.support).ok
    cor = corollary_33_check(geom.support, bigrade(geom.pair))
    assert cor.part1 and cor.part2
    assert geom.support.kappa_vanishes_on_relative_pair is True


def test_legendrean_full_support_fails_both_parts():
    geom = legendrean_catalog(2)
    cor = corollary_33_check(geom.support, bigrade(geom.pair))
    assert not cor.part1 and not cor.part2


def test_path_geometry_passes():
    geom = path_geometry_catalog(3)
    cor = corollary_33_check(geom.support, bigrade(geom.pair))
    assert cor.part1 and cor.part2


def test_empty_support_passes_everything():
    empty = TorsionSupport(components=frozenset())
    geom = path_geometry_catalog(2)
    assert involutivity_check(empty).ok
    cor = corollary_33_check(empty, bigrade(geom.pair))
    assert cor.part1 and cor.part2


def test_curvature_components_are_ignored():
    geom = legendrean_catalog(3, assume_involutive_f=True)
    curvature = [c for c in geom.support.components if not c.is_torsion]
    assert [c.tag for c in curvature] == ["E*⊗F*⊗L(E,E)"]
    assert curvature[0] not in geom.support.torsion_components()


def test_boundary_case_strict_vs_non_strict():
    comp = TorsionComponent(
        in1=Bidegree(0, -1), in2=Bidegree(-1, 0), out=Bidegree(-1, -1)
    )
    ts = TorsionSupport(components=frozenset({comp}))
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
    assert catalog("path-geometry(2)").name == "path-geometry(2)"
    with pytest.raises(ValueError):
        catalog("legendrean[3]")
    with pytest.raises(ValueError):
        catalog("spheres(2)")


def test_support_json_round_trip():
    support = legendrean_catalog(3).support
    data = support_to_json(support)
    again = support_from_json(data)
    assert again.components == support.components


# -- randomized structure ----------------------------------------------------

_NEG_BIDEGREES = [
    Bidegree(0, -1), Bidegree(0, -2), Bidegree(-1, 0), Bidegree(-1, -1),
    Bidegree(-2, 0), Bidegree(-2, -1), Bidegree(-1, -2),
]
_OUT_BIDEGREES = _NEG_BIDEGREES + [Bidegree(0, 0), Bidegree(1, 0), Bidegree(0, 1)]


def _random_component(rng):
    return TorsionComponent(
        in1=rng.choice(_NEG_BIDEGREES),
        in2=rng.choice(_NEG_BIDEGREES),
        out=rng.choice(_OUT_BIDEGREES),
    )


def _random_support(rng, max_components=4):
    return TorsionSupport(
        components=frozenset(
            _random_component(rng) for _ in range(rng.randint(0, max_components))
        )
    )


def test_monotone_under_adding_components():
    rng = random.Random(7)
    bg = bigrade(legendrean_catalog(4).pair)
    for _ in range(300):
        ts = _random_support(rng)
        bigger = TorsionSupport(components=ts.components | {_random_component(rng)})
        if involutivity_check(bigger).ok:
            assert involutivity_check(ts).ok
        cor_small = corollary_33_check(ts, bg)
        cor_big = corollary_33_check(bigger, bg)
        if cor_big.part1:
            assert cor_small.part1
        if cor_big.part2:
            assert cor_small.part2


def test_strict_implies_non_strict_and_part2_implies_part1():
    rng = random.Random(13)
    bg = bigrade(legendrean_catalog(4).pair)
    for _ in range(300):
        ts = _random_support(rng)
        ip = rng.randint(-3, -1)
        if theorem_322_check(ts, ip, strict=True).ok:
            assert theorem_322_check(ts, ip, strict=False).ok
        cor = corollary_33_check(ts, bg)
        if cor.part2:
            assert cor.part1


@given(st.data())
def test_verdicts_ignore_input_order(data):
    in1 = data.draw(st.sampled_from(_NEG_BIDEGREES))
    in2 = data.draw(st.sampled_from(_NEG_BIDEGREES))
    out = data.draw(st.sampled_from(_OUT_BIDEGREES))
    a = TorsionComponent(in1=in1, in2=in2, out=out)
    b = TorsionComponent(in1=in2, in2=in1, out=out)
    assert a == b
    ts_a = TorsionSupport(components=frozenset({a}))
    ts_b = TorsionSupport(components=frozenset({b}))
    assert involutivity_check(ts_a) == involutivity_check(ts_b)
