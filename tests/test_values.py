"""Semantics of the public value types.

Core claims:
    - Root, Weight and WeylWord with equal coefficient tuples are distinct
      from each other and from a plain tuple, and stay hashable
    - no public value type allows assignment to one of its fields, and no
      mapping a value holds allows an item to be set or deleted
    - TorsionComponents sort by (in1, in2, out, tag)
    - the validated constructors coerce their inputs and reject bad ones
    - relbgg.__all__ lists each public name of the package once, and each resolves
"""

import copy
import pickle
import random
import types

import pytest

from relbgg import (
    Bidegree,
    ParabolicPair,
    Root,
    TorsionComponent,
    TorsionSupport,
    Weight,
    WeylWord,
    bigrade,
    block_structure_from_pair,
    build_root_system,
    commutator_audit,
    corollary_33_check,
    filtration,
    legendrean_catalog,
    parse_label,
    relative_bgg_sequence,
    relative_hasse,
    subalgebra_profile,
    tangent_ranks,
    validate_label,
)
from relbgg.dynkin import DynkinLabel


def _value_instances():
    """One instance of every public frozen value type, with a field to assign to."""
    rs = build_root_system("A", 4)
    pair = ParabolicPair(rs=rs, sigma_q=frozenset({1, 2}), sigma_p=frozenset({1}))
    bg = bigrade(pair)
    src = parse_label("A4[x,o,o,o](-2,1,0,0)")
    seq = relative_bgg_sequence(src, pair)
    rep = filtration(bg)
    geom = legendrean_catalog(2)
    comp = min(geom.support.components)
    return [
        (Root((1, 0, 0, 0)), "coeffs"),
        (Weight((1, 0, 0, 0)), "coeffs"),
        (WeylWord((1, 2)), "gens"),
        (Bidegree(-1, 0), "i_prime"),
        (rs, "rank"),
        (pair, "sigma_q"),
        (src, "crossed"),
        (validate_label(src, "P", pair), "ok"),
        (bg, "dims"),
        (subalgebra_profile(bg)["q"], "dim"),
        (rep, "modules"),
        (rep.modules[0], "dim"),
        (tangent_ranks(bg), "dim_M"),
        (seq, "entries"),
        (seq.entries[0], "order_to_next"),
        (relative_hasse(pair), "is_chain"),
        (block_structure_from_pair(pair), "z_q"),
        (commutator_audit(block_structure_from_pair(pair), bg), "ok"),
        (comp, "tag"),
        (geom.support, "components"),
        (geom, "name"),
        (corollary_33_check(geom.support, bigrade(geom.pair)), "part1"),
        (corollary_33_check(geom.support, bigrade(geom.pair)).involutivity, "ok"),
    ]


def _id(param):
    return param if isinstance(param, str) else type(param).__name__


@pytest.mark.parametrize("value, field", _value_instances(), ids=_id)
def test_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before


@pytest.mark.parametrize("value, field", _value_instances(), ids=_id)
def test_values_survive_copy_and_pickle(value, field):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert getattr(clone, field) == getattr(value, field)


def _mapping_fields():
    """Every mapping held by a public value, with a key it contains."""
    bg = bigrade(ParabolicPair(build_root_system("A", 5), {1, 3, 5}, {1, 5}))
    rep, ranks = filtration(bg), tangent_ranks(bg)
    geom = legendrean_catalog(2)
    verdict = corollary_33_check(geom.support, bigrade(geom.pair))
    return [
        (bg, "dims", Bidegree(0, 0)),
        (rep, "components", 0),
        (rep, "modules", 0),
        (ranks, "ranks_T_P", -1),
        (ranks, "ranks_V", -1),
        (verdict, "per_level", 0),
    ]


@pytest.mark.parametrize("value, field, key", _mapping_fields(), ids=_id)
def test_mapping_fields_are_read_only(value, field, key):
    for holder in (value, copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        mapping = getattr(holder, field)
        before = dict(mapping)
        assert key in mapping
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(AttributeError):
            mapping.clear()
        assert dict(mapping) == before


def test_coefficient_vectors_are_distinct_types():
    coeffs = (1, 0)
    root, weight, word = Root(coeffs), Weight(coeffs), WeylWord(coeffs)
    values = (root, weight, word)
    for a in values:
        assert a != coeffs and not a == coeffs
        assert coeffs != a and not coeffs == a
        for b in values:
            if a is not b:
                assert a != b and not a == b
    assert len({root, weight, word, coeffs}) == 4
    assert {root: "r", weight: "w"}[Weight((1, 0))] == "w"


def test_coefficient_vectors_hash_by_value():
    assert Root((1, 1, 0)) == Root((1, 1, 0))
    assert hash(Root((1, 1, 0))) == hash(Root((1, 1, 0)))
    assert Weight((2, -1)) == Weight((2, -1))
    assert hash(Weight((2, -1))) == hash(Weight((2, -1)))
    assert WeylWord((2, 1)) == WeylWord((2, 1))
    assert hash(WeylWord((2, 1))) == hash(WeylWord((2, 1)))
    assert len({Weight((0, 1)), Weight((0, 1)), Weight((1, 0))}) == 2
    assert -Root((1, 1)) == Root((-1, -1))
    assert Weight((1, 2)) + Weight((0, -1)) == Weight((1, 1))
    assert Weight((1, 2)) - Weight((0, -1)) == Weight((1, 3))


def test_keyword_construction_and_repr():
    assert Root(coeffs=(0, 1)) == Root((0, 1))
    assert Weight(coeffs=(0, 1)) == Weight((0, 1))
    assert WeylWord(gens=(1,)) == WeylWord((1,))
    assert repr(Root((0, 1))) == "Root(coeffs=(0, 1))"
    assert repr(Weight((-1, 2))) == "Weight(coeffs=(-1, 2))"
    assert repr(WeylWord((2, 1))) == "WeylWord(gens=(2, 1))"


def test_validated_constructors_coerce_their_inputs():
    rs = build_root_system("A", 3)
    pair = ParabolicPair(rs=rs, sigma_q={1, 3}, sigma_p=[1])
    assert pair.sigma_q == frozenset({1, 3}) and isinstance(pair.sigma_q, frozenset)
    assert pair.sigma_p == frozenset({1}) and isinstance(pair.sigma_p, frozenset)
    assert pair == ParabolicPair(rs, frozenset({1, 3}), frozenset({1}))
    lbl = DynkinLabel(rs=rs, crossed={1}, coeffs=Weight((0, 1, 0)))
    assert isinstance(lbl.crossed, frozenset)
    assert lbl == parse_label("A3[x,o,o](0,1,0)")
    comp = TorsionComponent(in1=(0, -1), in2=(-1, 0), out=(0, 0), tag="t")
    assert (comp.in1, comp.in2, comp.out) == (Bidegree(-1, 0), Bidegree(0, -1), Bidegree(0, 0))
    assert type(comp.in1) is Bidegree and type(comp.out) is Bidegree
    assert comp == TorsionComponent(Bidegree(-1, 0), Bidegree(0, -1), Bidegree(0, 0), "t")
    assert TorsionComponent((-1, 0), (-1, 0), (0, -1)).tag == ""
    assert TorsionSupport(components=frozenset({comp})).geometry_tag == ""


def test_torsion_components_sort_by_field_order():
    rng = random.Random(7)
    comps = []
    for _ in range(200):
        ins = [Bidegree(rng.randint(-2, 0), rng.randint(-2, 0)) for _ in range(2)]
        ins = [bd if bd != (0, 0) else Bidegree(-1, 0) for bd in ins]
        out = rng.choice([Bidegree(-1, 0), Bidegree(0, -1), Bidegree(0, 0), Bidegree(1, 1)])
        comps.append(TorsionComponent(in1=ins[0], in2=ins[1], out=out, tag=rng.choice("abc")))
    rng.shuffle(comps)
    assert sorted(comps) == sorted(comps, key=lambda c: (c.in1, c.in2, c.out, c.tag))
    assert TorsionComponent((-1, 0), (-1, 0), (0, 0), "a") < TorsionComponent(
        (-1, 0), (-1, 0), (0, 0), "b"
    )


def test_validated_constructors_reject_bad_input():
    with pytest.raises(ValueError, match="mixed-sign"):
        Root((1, -1, 0))
    rs = build_root_system("A", 4)
    with pytest.raises(ValueError, match="not contained"):
        ParabolicPair(rs=rs, sigma_q=frozenset({1}), sigma_p=frozenset({1, 2}))
    with pytest.raises(ValueError, match="out of range"):
        ParabolicPair(rs=rs, sigma_q=frozenset({5}), sigma_p=frozenset())
    with pytest.raises(ValueError, match="3 coefficients for rank 4"):
        DynkinLabel(rs=rs, crossed=frozenset({1}), coeffs=Weight((0, 1, 0)))
    with pytest.raises(ValueError, match="out of range"):
        DynkinLabel(rs=rs, crossed=frozenset({0}), coeffs=Weight((0, 1, 0, 0)))
    with pytest.raises(ValueError, match="3 coefficients for rank 4"):
        parse_label("A4[x,o,o,o](0,1,0)")
    with pytest.raises(ValueError, match="mixed-sign bidegree"):
        TorsionComponent(in1=(-1, 1), in2=(-1, 0), out=(0, 0))
    with pytest.raises(ValueError, match="inside q"):
        TorsionComponent(in1=(0, 0), in2=(-1, 0), out=(0, 0))


def test_package_all_names_every_public_name_once():
    import relbgg

    names = relbgg.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(relbgg, n)]
    assert missing == []
    public = {
        n for n, v in vars(relbgg).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(names)
    star: dict = {}
    exec("from relbgg import *", star)
    assert set(star) - {"__builtins__"} == set(names)
