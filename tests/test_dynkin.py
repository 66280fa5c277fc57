"""Label grammar: parse, print, validate."""

import pytest
from common import path_pair
from hypothesis import example, given, strategies as st

from relbgg import (
    DynkinLabel,
    Weight,
    build_root_system,
    parse_label,
    print_label,
    validate_label,
)
from relbgg.roots import _MIN_RANK, MAX_RANK


def test_parse_two_crossings():
    lbl = parse_label("A4[x,x,o,o](-2,1,0,0)")
    assert lbl.crossed == {1, 2}
    assert lbl.coeffs == Weight((-2, 1, 0, 0))
    assert lbl.rs.rank == 4


def test_parse_single_crossing():
    lbl = parse_label("A4[x,o,o,o](-3,0,1,0)")
    assert lbl.crossed == {1}
    assert lbl.coeffs == Weight((-3, 0, 1, 0))


def test_parse_trivial_rep():
    lbl = parse_label("A1[x](0)")
    assert lbl.crossed == {1}
    assert lbl.coeffs == Weight((0,))


@pytest.mark.parametrize(
    "bad",
    [
        "A4[x,x,o,o](-2,1,0)",      # coefficient count mismatch
        "A4[x,x,o](-2,1,0,0)",      # marker count mismatch
        "A4[x,x,o,o](-2,1,0,0",     # unbalanced
        "A4(x,x,o,o)(-2,1,0,0)",    # wrong brackets
        "4A[x,x,o,o](-2,1,0,0)",    # malformed type
        "A4[x,y,o,o](1,1,1,1)",     # bad marker
        "A0[](())",                 # nonsense
        "E6[x,o,o,o,o,o](0,0,0,0,0,0)",  # unsupported family
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_label(bad)


def test_print_round_trips_worked_examples():
    for text in ("A4[x,x,o,o](-2,1,0,0)", "A4[x,o,o,o](-3,0,1,0)", "A1[x](0)"):
        assert print_label(parse_label(text)) == text


def test_print_specific_labels():
    rs = build_root_system("A", 4)
    lbl = DynkinLabel(rs=rs, crossed=frozenset({1, 2}), coeffs=Weight((0, -3, 2, 0)))
    assert print_label(lbl) == "A4[x,x,o,o](0,-3,2,0)"
    zero = DynkinLabel(rs=rs, crossed=frozenset({1, 2}), coeffs=Weight((0, 0, 0, 0)))
    assert print_label(zero) == "A4[x,x,o,o](0,0,0,0)"


def test_label_construction_guards():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        DynkinLabel(rs=rs, crossed=frozenset({4}), coeffs=Weight((0, 0, 0)))
    with pytest.raises(ValueError):
        DynkinLabel(rs=rs, crossed=frozenset({1}), coeffs=Weight((0, 0)))


# -- validation --------------------------------------------------------------

def test_validate_p_rep_ok():
    verdict = validate_label(parse_label("A4[x,o,o,o](-2,1,0,0)"), "P", path_pair())
    assert verdict.ok


def test_validate_p_rep_negative_uncrossed():
    verdict = validate_label(parse_label("A4[x,o,o,o](0,-1,0,0)"), "P", path_pair())
    assert not verdict.ok
    assert verdict.negative_uncrossed == (2,)


def test_validate_q_rep_ok_with_negative_crossed():
    verdict = validate_label(parse_label("A4[x,x,o,o](2,-5,1,0)"), "Q", path_pair())
    assert verdict.ok


def test_validate_role_mismatch_is_an_error():
    with pytest.raises(ValueError):
        validate_label(parse_label("A4[x,x,o,o](0,0,0,0)"), "P", path_pair())


# -- property: grammar round trip --------------------------------------------

@st.composite
def labels(draw):
    """Every type A-D, from its minimum rank up to the rank cap."""
    type_tag = draw(st.sampled_from(sorted(_MIN_RANK)))
    rank = draw(st.integers(_MIN_RANK[type_tag], MAX_RANK))
    rs = build_root_system(type_tag, rank)
    crossed = frozenset(
        i for i in range(1, rank + 1) if draw(st.booleans())
    )
    coeffs = Weight(tuple(draw(st.integers(-9, 9)) for _ in range(rank)))
    return DynkinLabel(rs=rs, crossed=crossed, coeffs=coeffs)


@given(labels())
@example(DynkinLabel(  # the D fork crossed, at the rank cap
    rs=build_root_system("D", MAX_RANK),
    crossed={MAX_RANK - 1, MAX_RANK},
    coeffs=Weight((0,) * (MAX_RANK - 2) + (-9, 9)),
))
def test_parse_print_identity(lbl):
    assert parse_label(print_label(lbl)) == lbl
