"""Semantics of the public value types.

Core claims:
    - Weight, WeylWord and a plain tuple with equal entries (the form of a
      root) are distinct from each other, and stay hashable
    - no public value type allows assignment to one of its fields, and no
      mapping a value holds allows an item to be set or deleted
    - TorsionComponents sort by (in1, in2, out, tag)
    - the validated constructors coerce their inputs and reject bad ones
    - relbgg.__all__ lists each public name of the package once, and each resolves
    - the README's list of public names is relbgg.__all__
"""

import copy
import functools
import pathlib
import pickle
import random
import re
import types

import pytest
from common import make_pair, path_pair

from relbgg import (
    Bidegree,
    ParabolicPair,
    TorsionComponent,
    TorsionSupport,
    Weight,
    WeylWord,
    bigrade,
    block_structure_from_pair,
    build_root_system,
    catalog,
    commutator_audit,
    corollary_33_check,
    filtration,
    parse_label,
    relative_bgg_sequence,
    relative_hasse,
    subalgebra_profile,
    tangent_ranks,
    validate_label,
)
from relbgg.dynkin import DynkinLabel


@functools.cache
def _a4():
    """The A4 path-type pair, its bigrading and a P-dominant source label."""
    pair = path_pair()
    return pair, bigrade(pair), parse_label("A4[x,o,o,o](-2,1,0,0)")


@functools.cache
def _legendrean2():
    geom = catalog("legendrean(2)")
    return geom, corollary_33_check(geom.support, bigrade(geom.pair))


# One instance of every public frozen value type, with a field to assign to.
# Each is built inside the test that reads it, so an engine fault fails the
# tests it reaches by name instead of breaking collection.
VALUES = {
    "Weight": ("coeffs", lambda: Weight((1, 0, 0, 0))),
    "WeylWord": ("gens", lambda: WeylWord((1, 2))),
    "Bidegree": ("i_prime", lambda: Bidegree(-1, 0)),
    "RootSystem": ("rank", lambda: _a4()[0].rs),
    "ParabolicPair": ("sigma_q", lambda: _a4()[0]),
    "DynkinLabel": ("crossed", lambda: _a4()[2]),
    "LabelVerdict": ("ok", lambda: validate_label(_a4()[2], "P", _a4()[0])),
    "Bigrading": ("dims", lambda: _a4()[1]),
    "SubalgebraInfo": ("dim", lambda: subalgebra_profile(_a4()[1])["q"]),
    "FiltrationReport": ("modules", lambda: filtration(_a4()[1])),
    "ModuleDescriptor": ("dim", lambda: filtration(_a4()[1]).modules[0]),
    "RankReport": ("dim_M", lambda: tangent_ranks(_a4()[1])),
    "BGGSequence": ("entries", lambda: relative_bgg_sequence(_a4()[2], _a4()[0])),
    "BGGEntry": ("order_to_next", lambda: relative_bgg_sequence(_a4()[2], _a4()[0]).entries[0]),
    "HasseDiagram": ("is_chain", lambda: relative_hasse(_a4()[0])),
    "BlockStructure": ("z_q", lambda: block_structure_from_pair(_a4()[0])),
    "OracleReport": ("ok", lambda: commutator_audit(block_structure_from_pair(_a4()[0]), _a4()[1])),
    "TorsionComponent": ("tag", lambda: min(_legendrean2()[0].support.components)),
    "TorsionSupport": ("components", lambda: _legendrean2()[0].support),
    "Geometry": ("pair", lambda: _legendrean2()[0]),
    "Corollary33Verdict": ("part1", lambda: _legendrean2()[1]),
    "TorsionVerdict": ("ok", lambda: _legendrean2()[1].involutivity),
}
VALUE_PARAMS = [pytest.param(name, field, id=f"{name}-{field}") for name, (field, _) in VALUES.items()]


def _value(name):
    value = VALUES[name][1]()
    assert type(value).__name__ == name
    return value


@pytest.mark.parametrize("name, field", VALUE_PARAMS)
def test_fields_cannot_be_assigned(name, field):
    value = _value(name)
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name, field", VALUE_PARAMS)
def test_values_survive_copy_and_pickle(name, field):
    value = _value(name)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert getattr(clone, field) == getattr(value, field)


@functools.cache
def _a5_reports():
    bg = bigrade(make_pair(5, {1, 3, 5}, {1, 5}))
    return {"Bigrading": bg, "FiltrationReport": filtration(bg), "RankReport": tangent_ranks(bg),
            "Corollary33Verdict": _legendrean2()[1]}


# Every mapping held by a public value, with a key it contains.
MAPPING_FIELDS = [
    ("Bigrading", "dims", Bidegree(0, 0)),
    ("FiltrationReport", "components", 0),
    ("FiltrationReport", "modules", 0),
    ("RankReport", "ranks_T_P", -1),
    ("RankReport", "ranks_V", -1),
    ("Corollary33Verdict", "per_level", 0),
]


@pytest.mark.parametrize(
    "name, field, key",
    [pytest.param(*f, id=f"{f[0]}-{f[1]}-{type(f[2]).__name__}") for f in MAPPING_FIELDS],
)
def test_mapping_fields_are_read_only(name, field, key):
    value = _a5_reports()[name]
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
    root = (1, 0)
    assert root in build_root_system("A", 2).positive_roots
    weight, word = Weight(root), WeylWord(root)
    values = (root, weight, word)
    for a in values:
        for b in values:
            if a is not b:
                assert a != b and not a == b
    assert len({root, weight, word}) == 3
    assert {root: "r", weight: "w", word: "v"}[Weight((1, 0))] == "w"
    assert {root: "r", weight: "w", word: "v"}[(1, 0)] == "r"


def test_coefficient_vectors_hash_by_value():
    assert Weight((2, -1)) == Weight((2, -1))
    assert hash(Weight((2, -1))) == hash(Weight((2, -1)))
    assert WeylWord((2, 1)) == WeylWord((2, 1))
    assert hash(WeylWord((2, 1))) == hash(WeylWord((2, 1)))
    assert len({Weight((0, 1)), Weight((0, 1)), Weight((1, 0))}) == 2


def test_keyword_construction_and_repr():
    assert Weight(coeffs=(0, 1)) == Weight((0, 1))
    assert WeylWord(gens=(1,)) == WeylWord((1,))
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


def test_readme_lists_exactly_the_public_names():
    import relbgg

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    listing = text.split("The public names, all in `relbgg.__all__`:\n\n", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z]\w*)`", listing)  # `_private` helpers may be named
    assert sorted(names) == sorted(relbgg.__all__)
