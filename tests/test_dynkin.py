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


@pytest.mark.parametrize(
    "bad, message",
    [
        ("A4[x,x,o,o](-2,1,0)", "3 coefficients for rank 4 in 'A4[x,x,o,o](-2,1,0)'"),
        ("A4[x,x,o](-2,1,0,0)", "3 node markers for rank 4 in 'A4[x,x,o](-2,1,0,0)'"),
        ("A4[x,x,o](-2,1,0)", "3 node markers for rank 4 in 'A4[x,x,o](-2,1,0)'"),
        ("A4[x,x,o,o](-2,1,0,0", "malformed label 'A4[x,x,o,o](-2,1,0,0'"),
        ("A0[](())", "malformed label 'A0[](())'"),
        ("E6[x,o,o,o,o,o](0,0,0,0,0,0)", "unsupported type tag 'E'"),
        ("A0[x](0)", "rank must be >= 1"),
        ("B1[x](0)", "type B needs rank >= 2"),
        ("D2[x,o](0,0)", "type D needs rank >= 3"),
        ("A33[x" + ",o" * 32 + "](0" + ",0" * 32 + ")", "rank 33 is above the supported maximum 32"),
    ],
)
def test_malformed_label_messages(bad, message):
    with pytest.raises(ValueError) as exc:
        parse_label(bad)
    assert str(exc.value) == message


@st.composite
def label_texts(draw):
    """A label's text up to rank 8 and the fields it was written from; the marker or the
    coefficient count is sometimes one off the rank."""
    type_tag = draw(st.sampled_from(sorted(_MIN_RANK)))
    rank = draw(st.integers(_MIN_RANK[type_tag], 8))
    marks = draw(st.lists(st.sampled_from("xo"), min_size=max(rank - 1, 1), max_size=rank + 1))
    coeffs = draw(st.lists(st.integers(-99, 99), min_size=max(rank - 1, 1), max_size=rank + 1))
    text = f"{type_tag}{rank}[{','.join(marks)}]({','.join(map(str, coeffs))})"
    return text, type_tag, rank, marks, coeffs


@given(label_texts())
def test_parsed_label_is_what_the_checked_constructor_builds(drawn):
    """``parse_label`` builds with ``_make``: on every count it accepts, the label equals the one
    ``DynkinLabel()`` builds with all its checks, and a count off the rank keeps its message."""
    text, type_tag, rank, marks, coeffs = drawn
    if len(marks) != rank or len(coeffs) != rank:
        wrong = f"{len(marks)} node markers" if len(marks) != rank else f"{len(coeffs)} coefficients"
        with pytest.raises(ValueError) as exc:
            parse_label(text)
        assert str(exc.value) == f"{wrong} for rank {rank} in {text!r}"
        return
    crossed = {i for i, mark in enumerate(marks, 1) if mark == "x"}
    lbl = parse_label(text)
    assert type(lbl) is DynkinLabel
    assert lbl == DynkinLabel(build_root_system(type_tag, rank), crossed, Weight(tuple(coeffs)))
