"""Root-system substrate checks.

Core claims:
    - positive-root counts match the closed forms for types A, B, C, D
    - the reflection walk yields exactly the root-chain closure, in order
    - carrying pairings through the walk keeps the order of the row-sum walk
      that recomputes them, for every type up to rank MAX_RANK
    - every Cartan matrix is symmetrized by the minimal positive integers d
      of the test-side reference (d[i] is half the squared length of alpha_i)
    - reflect keeps the symmetrized-form pairing 2(w, beta)/(beta, beta) of
      the reference: <s_i w, (s_i beta)^vee> = <w, beta^vee> on every
      positive root beta and node i
    - every positive root of A_r has contiguous all-ones support
    - basis changes and reflections reproduce hand-computed values
    - simple reflections are involutions on arbitrary integer weights
    - the reference pairs every positive root, rewritten in fundamental-weight
      coordinates by the Cartan matrix, with its own coroot to 2
    - a RootSystem is frozen: no attribute can be set and it has no __dict__
    - each system is built and walked once per process and every later call
      returns the same object, within a bound set by MAX_RANK; a refused type
      or rank adds no cache entry, and a float rank is not served an int's
    - sparse_cartan holds exactly the nonzero entries of each Cartan column
    - the packed sigma-heights never carry from one root's byte into the
      next: over every node they are each root's coefficient sum (up to 63
      at B32 and C32), over random node sets its sum over those nodes
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from relbgg import Weight, build_root_system, reflect
from relbgg import roots
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


def row_sum_walk_reference(cartan):
    """Positive roots by the reflection walk that recomputes every pairing
    <c, alpha_i^vee> as a Cartan row sum (the previous walk, kept as the
    reference for the one that carries pairings through each reflection)."""
    rank = len(cartan)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    found = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(found)
    for c in found:
        for i, row in enumerate(rows):
            k = sum(a * c[j] for j, a in row)
            if k < 0:
                t = c[:i] + (c[i] - k,) + c[i + 1:]
                if t not in seen:
                    seen.add(t)
                    found.append(t)
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


def root_to_weight_reference(cartan, beta):
    """beta in fundamental-weight coordinates: alpha_i = sum_j C[j][i] omega_j."""
    return tuple(sum(c * b for c, b in zip(row, beta)) for row in cartan)


# -- construction ------------------------------------------------------------

def test_a1_smallest_case():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.cartan == ((2,),)


@pytest.mark.parametrize("rank", range(1, 9))
def test_type_a_positive_root_count(rank):
    rs = build_root_system("A", rank)
    assert len(rs.positive_roots) == rank * (rank + 1) // 2


def test_a3_contains_highest_root():
    rs = build_root_system("A", 3)
    assert (1, 1, 1) in rs.positive_roots


@pytest.mark.parametrize("rank", range(1, 7))
def test_type_a_roots_are_contiguous_intervals(rank):
    rs = build_root_system("A", rank)
    for root in rs.positive_roots:
        supp = tuple(i + 1 for i, c in enumerate(root) if c)
        assert supp == tuple(range(supp[0], supp[-1] + 1))
        assert all(c in (0, 1) for c in root)


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
    assert list(rs.positive_roots) == root_chain_reference(rs.cartan)


@pytest.mark.parametrize("tag,lo", ALL_TYPES)
def test_walk_matches_row_sum_walk_up_to_rank_cap(tag, lo):
    # the first call walks and packs, the second unpacks the cached entry
    build_root_system.cache_clear()
    for rank in range(lo, MAX_RANK + 1):
        for _ in range(2):
            rs = build_root_system(tag, rank)
            assert list(rs.positive_roots) == row_sum_walk_reference(rs.cartan), rank


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


# -- the per-process cache -----------------------------------------------------

def test_each_system_is_walked_once(monkeypatch):
    walk, walked = roots._enumerate_positive_roots, []

    def counting_walk(cartan, cols):
        walked.append(len(cartan))
        return walk(cartan, cols)

    monkeypatch.setattr(roots, "_enumerate_positive_roots", counting_walk)
    build_root_system.cache_clear()
    for tag in "AAAB":
        build_root_system(tag, 5)
    assert walked == [5, 5]


def test_calls_share_no_root_object():
    first, second = build_root_system("C", 6), build_root_system("C", 6)
    assert first == second
    assert first.positive_roots == second.positive_roots == first.positive_roots


def test_each_system_is_one_object():
    assert build_root_system("C", 6) is build_root_system("C", 6)


def test_cache_is_keyed_by_type():
    build_root_system("A", 4)
    before = build_root_system.cache_info().currsize
    with pytest.raises(TypeError):
        build_root_system("A", 4.0)
    assert build_root_system.cache_info().currsize == before


def test_cache_is_bounded_by_the_rank_cap():
    build_root_system.cache_clear()
    size = 0
    for tag, lo in ALL_TYPES:
        for rank in range(lo, MAX_RANK + 1):
            size += len(build_root_system(tag, rank).columns)
    assert build_root_system.cache_info().currsize == 124
    assert size < 1_000_000


@pytest.mark.parametrize("tag,rank", [("E", 6), ("A", 0), ("A", MAX_RANK + 1)])
def test_refused_system_adds_no_cache_entry(tag, rank):
    before = build_root_system.cache_info().currsize
    with pytest.raises(ValueError):
        build_root_system(tag, rank)
    assert build_root_system.cache_info().currsize == before


@pytest.mark.parametrize("tag,lo", ALL_TYPES)
def test_sparse_cartan_is_the_nonzero_cartan_entries(tag, lo):
    for rank in range(lo, MAX_RANK + 1):
        rs = build_root_system(tag, rank)
        for i, col in enumerate(rs.sparse_cartan):
            assert col == tuple((m, row[i]) for m, row in enumerate(rs.cartan) if row[i])
            assert len(col) <= 4


# -- packed sigma-heights ----------------------------------------------------

def test_heights_over_every_node_are_coefficient_sums():
    tallest = {}
    for tag, lo in ALL_TYPES:
        for rank in range(lo, MAX_RANK + 1):
            rs = build_root_system(tag, rank)
            heights = rs.sigma_heights(range(1, rank + 1))
            assert list(heights) == [sum(r) for r in rs.positive_roots], (tag, rank)
            tallest[tag, rank] = max(heights)
    assert len(tallest) == 124
    assert max(tallest.values()) == tallest["B", MAX_RANK] == tallest["C", MAX_RANK] == 2 * MAX_RANK - 1


def test_heights_over_random_nodes_match_sigma_height():
    rng = random.Random(17)
    for _ in range(300):
        tag, lo = rng.choice(ALL_TYPES)
        rs = build_root_system(tag, rng.randint(lo, MAX_RANK))
        sigma = rng.sample(range(1, rs.rank + 1), rng.randint(0, rs.rank))
        got = rs.sigma_heights(sigma)
        want = [sum(r[i - 1] for i in sigma) for r in rs.positive_roots]
        assert list(got) == want, (rs.type_tag, rs.rank, sigma)


def test_heights_refuse_a_node_out_of_range():
    rs = build_root_system("A", 4)
    for node in (0, 5):
        with pytest.raises(ValueError, match="out of range"):
            rs.sigma_heights([1, node])


# -- basis change ------------------------------------------------------------

def test_root_to_weight_simple_roots():
    cartan = build_root_system("A", 4).cartan
    assert root_to_weight_reference(cartan, (0, 1, 0, 0)) == (-1, 2, -1, 0)
    assert root_to_weight_reference(cartan, (0, 0, 0, 1)) == (0, 0, -1, 2)


def test_root_to_weight_highest_root_a3():
    cartan = build_root_system("A", 3).cartan
    assert root_to_weight_reference(cartan, (1, 1, 1)) == (1, 0, 1)


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
    cartan = build_root_system("A", 4).cartan
    assert pairing_reference((-1, 2, 1, 1), (0, 1, 0, 0), cartan) == 2
    assert pairing_reference((1, -2, 3, 1), (0, 1, 1, 0), cartan) == 1
    assert pairing_reference((9, 0, 4, -3), (0, 1, 0, 0), cartan) == 0


@pytest.mark.parametrize(
    "tag,rank", [("A", 1), ("A", 4), ("A", 6), ("B", 3), ("C", 3), ("D", 4)]
)
def test_pairing_of_root_with_itself_is_two(tag, rank):
    rs = build_root_system(tag, rank)
    for beta in rs.positive_roots:
        assert pairing_reference(root_to_weight_reference(rs.cartan, beta), beta, rs.cartan) == 2


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
    """reflect keeps the reference pairing: <s_i w, (s_i beta)^vee> = <w, beta^vee>,
    with s_i beta = beta - <beta, alpha_i^vee> alpha_i in simple-root coordinates."""
    rs = build_root_system(tag, rank)
    rng = random.Random(f"pairing:{tag}{rank}")
    for beta in rs.positive_roots:
        w = tuple(rng.randint(-9, 9) for _ in range(rank))
        want = pairing_reference(w, beta, rs.cartan)
        for i, k in enumerate(root_to_weight_reference(rs.cartan, beta)):
            s_beta = beta[:i] + (beta[i] - k,) + beta[i + 1:]
            got = pairing_reference(reflect(rs, i + 1, Weight(w)).coeffs, s_beta, rs.cartan)
            assert got == want, (beta, w, i + 1)


# -- immutability ------------------------------------------------------------

def test_root_system_is_frozen():
    rs = build_root_system("B", 3)
    assert not hasattr(rs, "__dict__")
    for name in (*rs._fields, "symmetrizer", "extra"):
        with pytest.raises(AttributeError):
            setattr(rs, name, None)
    assert rs == build_root_system("B", 3)
