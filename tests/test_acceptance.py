"""Acceptance suite: one test per exit criterion, one printed line each.

All comparisons are exact integer equality.  Randomized suites use fixed
seeds and at least 1000 cases.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import random
from contextlib import contextmanager

from common import (
    all_pairs,
    check_strict_implies_non_strict,
    check_torsion_monotonicity,
    legendrean_pair,
    path_pair,
)

from relbgg import (
    Bidegree,
    DynkinLabel,
    Weight,
    WeylWord,
    affine_act,
    bigrade,
    block_structure_from_pair,
    build_root_system,
    catalog,
    commutator_audit,
    corollary_33_check,
    involutivity_check,
    parse_label,
    print_label,
    reflect,
    relative_bgg_sequence,
    relative_hasse,
    tangent_ranks,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_dual_standard_sequence():
    with criterion(1, "dual-standard sequence labels and orders, exact"):
        seq = relative_bgg_sequence(parse_label("A4[x,o,o,o](-2,1,0,0)"), path_pair())
        assert [e.label.coeffs.coeffs for e in seq.entries] == [
            (-2, 1, 0, 0),
            (0, -3, 2, 0),
            (1, -4, 1, 1),
            (2, -5, 1, 0),
        ]
        assert all(e.label.crossed == {1, 2} for e in seq.entries)
        assert tuple(e.order_to_next for e in seq.entries[:-1]) == (2, 1, 1)


def test_criterion_2_deformation_sequence_partial_exact():
    with criterion(2, "deformation sequence: all four labels and orders"):
        seq = relative_bgg_sequence(parse_label("A4[x,o,o,o](-3,0,1,0)"), path_pair())
        labels = [e.label.coeffs.coeffs for e in seq.entries]
        assert labels == [(-3, 0, 1, 0), (-2, -2, 2, 0), (0, -4, 0, 2), (1, -5, 0, 1)]
        assert tuple(e.order_to_next for e in seq.entries[:-1]) == (1, 2, 1)


def test_criterion_3_symmetric_power_order_law():
    with criterion(3, "symmetric-power family: first order k+1, then 1, second bundle"):
        for k in range(1, 7):
            src = parse_label(f"A4[x,o,o,o]({-2 * k},{k},0,0)")
            seq = relative_bgg_sequence(src, path_pair())
            orders = tuple(e.order_to_next for e in seq.entries[:-1])
            assert orders[0] == k + 1, k
            assert all(o == 1 for o in orders[1:]), k
            assert seq.entries[1].label.coeffs.coeffs == (-k + 1, -k - 2, k + 1, 0)


def test_criterion_4_legendrean_line_bundle_shape():
    with criterion(4, "contact-type family: second-order operator on a line bundle"):
        for n in range(2, 6):
            rank = n + 1
            pair = legendrean_pair(n)
            coeffs = [0] * rank
            coeffs[0] = coeffs[-1] = 1
            src = DynkinLabel(
                rs=pair.rs, crossed=frozenset({1}), coeffs=Weight(tuple(coeffs))
            )
            assert len(relative_hasse(pair).elements) == n + 1, n
            seq = relative_bgg_sequence(src, pair)
            assert len(seq.entries) == n + 1, n
            first = seq.entries[0].label
            assert all(c == 0 for i, c in enumerate(first.coeffs.coeffs, 1) if i not in first.crossed), n
            orders = tuple(e.order_to_next for e in seq.entries[:-1])
            assert orders[0] == 2, n
            assert all(o == 1 for o in orders[1:]), n


def test_criterion_5_bigrading_dims_with_oracle_confirmation():
    with criterion(5, "bigrading dims for both families, confirmed by block dims"):
        for n in range(2, 6):
            path_bg = bigrade(path_pair(n))
            assert path_bg.dims.get(Bidegree(-1, 0), 0) == 1
            assert path_bg.dims.get(Bidegree(0, -1), 0) == n
            assert path_bg.dims.get(Bidegree(-1, -1), 0) == n
            leg_bg = bigrade(legendrean_pair(n))
            assert leg_bg.dims.get(Bidegree(-1, 0), 0) == n
            assert leg_bg.dims.get(Bidegree(0, -1), 0) == n
            assert leg_bg.dims.get(Bidegree(-1, -1), 0) == 1
            for pair, bg in ((path_pair(n), path_bg), (legendrean_pair(n), leg_bg)):
                rep = commutator_audit(block_structure_from_pair(pair), bg)
                assert rep.ok, (n, rep.dim_mismatches)


def test_criterion_6_commutator_audits_exhaustive():
    with criterion(6, "commutator audit for every pair, rank <= 5 (nilradical raising follows)"):
        for rank in range(1, 6):
            for pair in all_pairs(rank):
                rep = commutator_audit(block_structure_from_pair(pair), bigrade(pair))
                assert rep.ok, (rank, sorted(pair.sigma_q), sorted(pair.sigma_p))


def test_criterion_7_rank_telescoping():
    with criterion(7, "rank telescoping for every pair, rank <= 6, and the dim-7 case"):
        for rank in range(1, 7):
            for pair in (p for p in all_pairs(rank) if p.sigma_p):
                rep = tangent_ranks(bigrade(pair))
                assert sum(rep.ranks_V.values()) == rep.dim_M - rep.rank_T_rho
        rep = tangent_ranks(bigrade(path_pair(3)))
        assert rep.dim_M == 7
        assert rep.rank_T_rho == 3
        assert rep.ranks_V == {-1: 4}


def test_criterion_8_torsion_verdicts():
    with criterion(8, "catalog torsion verdicts"):
        full = catalog("legendrean(3)")
        verdict = involutivity_check(full.support)
        assert not verdict.ok
        assert [c.tag for c in verdict.violators] == ["Λ²F*⊗E"]
        involutive = catalog("legendrean(3)", assume_involutive_f=True)
        cor = corollary_33_check(involutive.support, involutive.pair)
        assert cor.part1 and cor.part2
        path_geom = catalog("path-geometry(3)")
        cor = corollary_33_check(path_geom.support, path_geom.pair)
        assert cor.part1 and cor.part2


# -- criterion 9: randomized property suites ---------------------------------

_CASES = 1000


def test_criterion_9a_affine_action_group_law():
    with criterion("9a", f"affine-action group law, {_CASES} seeded cases"):
        rng = random.Random(90001)
        for _ in range(_CASES):
            rank = rng.randint(1, 5)
            rs = build_root_system("A", rank)
            gens = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            cut = rng.randint(0, len(gens))
            lam = Weight(tuple(rng.randint(-9, 9) for _ in range(rank)))
            split = affine_act(
                WeylWord(gens[:cut]), affine_act(WeylWord(gens[cut:]), lam, rs), rs
            )
            assert affine_act(WeylWord(gens), lam, rs) == split


def test_criterion_9b_reflection_involutivity():
    with criterion("9b", f"reflection involutivity, {_CASES} seeded cases"):
        rng = random.Random(90002)
        for _ in range(_CASES):
            rank = rng.randint(1, 8)
            rs = build_root_system("A", rank)
            w = Weight(tuple(rng.randint(-50, 50) for _ in range(rank)))
            i = rng.randint(1, rank)
            assert reflect(rs, i, reflect(rs, i, w)) == w


def test_criterion_9c_parser_round_trip():
    with criterion("9c", f"label parse/print round trip, {_CASES} seeded cases"):
        rng = random.Random(90003)
        for _ in range(_CASES):
            rank = rng.randint(1, 8)
            rs = build_root_system("A", rank)
            crossed = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.4)
            coeffs = Weight(tuple(rng.randint(-9, 9) for _ in range(rank)))
            lbl = DynkinLabel(rs=rs, crossed=crossed, coeffs=coeffs)
            text = print_label(lbl)
            assert parse_label(text) == lbl
            assert print_label(parse_label(text)) == text


def test_criterion_9d_torsion_monotonicity():
    with criterion("9d", f"torsion-verdict monotonicity, {_CASES} seeded cases"):
        check_torsion_monotonicity(90004, _CASES)


def test_criterion_9e_strict_implies_non_strict():
    with criterion("9e", f"strict implies non-strict, {_CASES} seeded cases"):
        check_strict_implies_non_strict(90005, _CASES)
