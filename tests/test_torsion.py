"""Torsion-admissibility verdicts on catalog and synthetic supports."""

import itertools

import pytest
from common import (
    NEG_BIDEGREES,
    OUT_BIDEGREES,
    check_strict_implies_non_strict,
    check_torsion_monotonicity,
    make_pair,
)

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


def test_legendrean_full_support_fails_both_parts():
    geom = legendrean_catalog(2)
    cor = corollary_33_check(geom.support, bigrade(geom.pair))
    assert not cor.part1 and not cor.part2


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
    cor = corollary_33_check(ts, bigrade(make_pair(4, {1, 2}, ())))
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
    assert sorted(data) == ["components", "geometry_tag"]


def test_support_json_with_retired_kappa_key_is_accepted():
    data = support_to_json(legendrean_catalog(3, assume_involutive_f=True).support)
    for kappa in (True, False, None):
        again = support_from_json({**data, "kappa_vanishes_on_relative_pair": kappa})
        assert support_to_json(again) == data


# -- randomized structure ----------------------------------------------------

def test_monotone_under_adding_components():
    check_torsion_monotonicity(7, 300)


def test_strict_implies_non_strict_and_part2_implies_part1():
    check_strict_implies_non_strict(13, 300)


def test_verdicts_ignore_input_order():
    for in1, in2, out in itertools.product(NEG_BIDEGREES, NEG_BIDEGREES, OUT_BIDEGREES):
        a = TorsionComponent(in1=in1, in2=in2, out=out)
        b = TorsionComponent(in1=in2, in2=in1, out=out)
        assert a == b
        ts_a = TorsionSupport(components=frozenset({a}))
        ts_b = TorsionSupport(components=frozenset({b}))
        assert involutivity_check(ts_a) == involutivity_check(ts_b)
