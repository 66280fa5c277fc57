"""Root-system substrate checks.

Core claims:
    - positive-root counts match the closed forms for types A, B, C, D
    - the reflection walk yields exactly the root-chain closure, in order
    - every Cartan matrix is symmetrized by the minimal positive integers d
      of the test-side reference (d[i] is half the squared length of alpha_i)
    - pairing, a walk down to a simple root, equals the symmetrized-form
      formula 2(w, beta)/(beta, beta) of the reference on every positive root
    - every positive root of A_r has contiguous all-ones support
    - basis changes and reflections reproduce hand-computed values
    - simple reflections are involutions on arbitrary integer weights
    - pairing(root_to_weight(beta), beta) = 2 for every positive root
    - a RootSystem is frozen: no attribute can be set and it has no __dict__
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from relbgg import Root, Weight, build_root_system, pairing, reflect, root_to_weight
from relbgg.roots import MAX_RANK

ALL_TYPES = (("A", 1), ("B", 2), ("C", 2), ("D", 3))  # (tag, smallest rank)


def root_chain_reference(cartan):
    """Positive roots by closure under simple-root addition (the previous
    algorithm, kept as an independent reference).

    Root-chain criterion: beta + alpha_i is a root iff p > <beta, alpha_i^vee>
    where p is the number of times alpha_i can be subtracted from beta.
    Processing level by level in height keeps every chain fully known.
    """
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                pair = sum(cartan[i][j] * c[j] for j in range(rank))
                p = 0
                probe = list(c)
                probe[i] -= 1
                while tuple(probe) in found:
                    p += 1
                    probe[i] -= 1
                if p - pair > 0:
                    up = list(c)
                    up[i] += 1
                    t = tuple(up)
                    if t not in found:
                        found.add(t)
                        nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda t: (sum(t), t))


def symmetrizer_reference(cartan):
    """The minimal positive integers d with d[i]*C[i][j] == d[j]*C[j][i],
    propagated along the (connected) Dynkin diagram: d[j] = d[i]*C[i][j]/C[j][i].
    d[i] is half the squared length of alpha_i in the normalised invariant form."""
    rank = len(cartan)
    d = [Fraction(1)] + [Fraction(0)] * (rank - 1)
    todo = [0]
    for i in todo:
        for j in range(rank):
            if cartan[i][j] and not d[j]:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    scaled = [int(x * lcm(*(y.denominator for y in d))) for x in d]
    return tuple(x // gcd(*scaled) for x in scaled)


def pairing_reference(w, beta, cartan):
    """<w, beta^vee> = 2(w, beta)/(beta, beta) in the invariant form given by
    the symmetrizer: (omega_i, alpha_j) = d[i] if i == j else 0 and
    (alpha_i, alpha_j) = d[i]*C[i][j].  ``w`` is in fundamental-weight and
    ``beta`` in simple-root coordinates, both plain tuples."""
    d = symmetrizer_reference(cartan)
    rank = len(cartan)
    num = sum(w[i] * beta[i] * d[i] for i in range(rank))
    twice_len = sum(
        beta[i] * d[i] * cartan[i][j] * beta[j] for i in range(rank) for j in range(rank)
    )
    q, r = divmod(2 * num, twice_len)
    assert twice_len > 0 and r == 0, (w, beta)
    return q


# -- construction ------------------------------------------------------------

def test_a1_smallest_case():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.cartan == ((2,),)
    assert rs.rho == Weight((1,))


@pytest.mark.parametrize("rank", range(1, 9))
def test_type_a_positive_root_count(rank):
    rs = build_root_system("A", rank)
    assert len(rs.positive_roots) == rank * (rank + 1) // 2


def test_a3_contains_highest_root():
    rs = build_root_system("A", 3)
    assert Root((1, 1, 1)) in rs.positive_roots


@pytest.mark.parametrize("rank", range(1, 7))
def test_type_a_roots_are_contiguous_intervals(rank):
    rs = build_root_system("A", rank)
    for root in rs.positive_roots:
        supp = tuple(i + 1 for i, c in enumerate(root.coeffs) if c)
        assert supp == tuple(range(supp[0], supp[-1] + 1))
        assert all(c in (0, 1) for c in root.coeffs)


@pytest.mark.parametrize(
    "tag,rank,count",
    [("B", 2, 4), ("B", 3, 9), ("B", 4, 16), ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
     ("D", 3, 6), ("D", 4, 12), ("D", 5, 20)],
)
def test_other_type_root_counts(tag, rank, count):
    rs = build_root_system(tag, rank)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize(
    "tag,rank", [(tag, n) for tag, lo in ALL_TYPES for n in range(lo, 13)]
)
def test_walk_matches_root_chain_reference(tag, rank):
    rs = build_root_system(tag, rank)
    assert [r.coeffs for r in rs.positive_roots] == root_chain_reference(rs.cartan)


def test_rank_cap():
    assert len(build_root_system("A", MAX_RANK).positive_roots) == MAX_RANK * (MAX_RANK + 1) // 2
    for tag in "ABCD":
        with pytest.raises(ValueError, match="above the supported maximum"):
            build_root_system(tag, MAX_RANK + 1)


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    with pytest.raises(ValueError):
        build_root_system("A", 0)
    with pytest.raises(ValueError):
        Root((1, -1))


# -- basis change ------------------------------------------------------------

def test_root_to_weight_simple_roots():
    rs = build_root_system("A", 4)
    assert root_to_weight(rs, Root((0, 1, 0, 0))) == Weight((-1, 2, -1, 0))
    assert root_to_weight(rs, Root((0, 0, 0, 1))) == Weight((0, 0, -1, 2))


def test_root_to_weight_highest_root_a3():
    rs = build_root_system("A", 3)
    assert root_to_weight(rs, Root((1, 1, 1))) == Weight((1, 0, 1))


def test_root_to_weight_length_mismatch():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        root_to_weight(rs, Root((1, 0)))


# -- reflections -------------------------------------------------------------

def test_reflect_worked_example():
    rs = build_root_system("A", 4)
    assert reflect(rs, 2, Weight((-1, 2, 1, 1))) == Weight((1, -2, 3, 1))


def test_reflect_fixes_hyperplane():
    rs = build_root_system("A", 4)
    w = Weight((5, 0, -2, 7))
    assert reflect(rs, 2, w) == w


def test_reflect_rank_one_sign_flip():
    rs = build_root_system("A", 1)
    assert reflect(rs, 1, Weight((3,))) == Weight((-3,))


def test_reflect_index_out_of_range():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        reflect(rs, 0, Weight((1, 1, 1)))
    with pytest.raises(ValueError):
        reflect(rs, 4, Weight((1, 1, 1)))


@given(
    rank=st.integers(1, 6),
    data=st.data(),
)
def test_reflect_is_involution(rank, data):
    rs = build_root_system("A", rank)
    coeffs = data.draw(st.tuples(*[st.integers(-20, 20)] * rank))
    i = data.draw(st.integers(1, rank))
    w = Weight(coeffs)
    assert reflect(rs, i, reflect(rs, i, w)) == w


# -- pairings ----------------------------------------------------------------

def test_pairing_worked_examples():
    rs = build_root_system("A", 4)
    assert pairing(Weight((-1, 2, 1, 1)), Root((0, 1, 0, 0)), rs) == 2
    assert pairing(Weight((1, -2, 3, 1)), Root((0, 1, 1, 0)), rs) == 1
    assert pairing(Weight((9, 0, 4, -3)), Root((0, 1, 0, 0)), rs) == 0


def test_pairing_rejects_non_roots():
    rs = build_root_system("A", 4)
    with pytest.raises(ValueError):
        pairing(Weight((1, 1, 1, 1)), Root((1, 0, 1, 0)), rs)
    with pytest.raises(ValueError):
        pairing(Weight((1, 1, 1, 1)), Root((-1, 0, 0, 0)), rs)
    # zero, non-roots and negative roots in every type; (0, 1, 2) is a root of B3 only
    for tag, coeffs in [("A", (0, 0, 0)), ("A", (2, 0, 0)), ("A", (1, 2, 1)),
                        ("B", (0, 2, 1)), ("B", (1, 2, 3)), ("C", (0, 1, 2)),
                        ("C", (-1, -2, -1)), ("D", (1, 2, 2)), ("D", (0, 0, -1))]:
        rs = build_root_system(tag, 3)
        with pytest.raises(ValueError, match="not a positive root"):
            pairing(Weight((1, 1, 1)), Root(coeffs), rs)


@pytest.mark.parametrize(
    "tag,rank", [("A", 1), ("A", 4), ("A", 6), ("B", 3), ("C", 3), ("D", 4)]
)
def test_pairing_of_root_with_itself_is_two(tag, rank):
    rs = build_root_system(tag, rank)
    for beta in rs.positive_roots:
        assert pairing(root_to_weight(rs, beta), beta, rs) == 2


def test_symmetrizer_values():
    def d(tag, rank):
        return symmetrizer_reference(build_root_system(tag, rank).cartan)

    assert d("A", 4) == (1, 1, 1, 1)
    assert d("B", 3) == (2, 2, 1)
    assert d("C", 3) == (1, 1, 2)
    assert d("D", 4) == (1, 1, 1, 1)
    assert d("B", 2) == (2, 1)
    assert d("C", 2) == (1, 2)


def test_symmetrizer_symmetrizes_every_cartan_matrix():
    for tag, lo in ALL_TYPES:
        for rank in range(lo, 25):
            c = build_root_system(tag, rank).cartan
            d = symmetrizer_reference(c)
            assert len(d) == rank and all(x > 0 for x in d)
            assert gcd(*d) == 1
            for i in range(rank):
                for j in range(rank):
                    assert d[i] * c[i][j] == d[j] * c[j][i], (tag, rank, i, j)


@pytest.mark.parametrize(
    "tag,rank", [(tag, n) for tag, lo in ALL_TYPES for n in range(lo, 9)]
)
def test_pairing_matches_symmetrizer_reference(tag, rank):
    rs = build_root_system(tag, rank)
    rng = random.Random(f"pairing:{tag}{rank}")
    for beta in rs.positive_roots:
        for _ in range(3):
            w = tuple(rng.randint(-9, 9) for _ in range(rank))
            assert pairing(Weight(w), beta, rs) == pairing_reference(w, beta.coeffs, rs.cartan)


# -- immutability ------------------------------------------------------------

def test_root_system_is_frozen():
    rs = build_root_system("B", 3)
    assert not hasattr(rs, "__dict__")
    for name in (*rs._fields, "symmetrizer", "extra"):
        with pytest.raises(AttributeError):
            setattr(rs, name, None)
    assert rs == build_root_system("B", 3)
