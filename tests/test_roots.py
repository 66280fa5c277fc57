"""Root-system substrate checks.

Core claims:
    - positive-root counts match the closed forms for types A, B, C, D
    - the reflection walk yields exactly the root-chain closure, in order: the
      positive roots of the epsilon-basis model (tests/weyl_model.py), by
      height and then coefficients, for every type up to rank MAX_RANK
    - every Cartan matrix is symmetrized by the minimal positive integers d
      read off the model (d[i] is the squared length of alpha_i over their gcd)
    - reflect keeps the model's pairing 2(w, beta)/(beta, beta):
      <s_i w, (s_i beta)^vee> = <w, beta^vee> on every positive root beta and
      node i
    - the root and reflection checks above fail at every rank up to 8 with the
      B/C -2 entries swapped or D_n's fork moved to node n-1
    - _orbit_walk keeps its contract on every root walk up to MAX_RANK and
      every Hasse walk up to rank 5: parents come first, each point is its
      parent reflected at its letter, the letter is its first negative
      coordinate, no point is entered twice, and each walk gets its bound,
      rank^2 roots or the Hasse diagram's size
    - every positive root of A_r has contiguous all-ones support
    - basis changes and reflections reproduce hand-computed values
    - simple reflections are involutions on arbitrary integer weights
    - every positive root, rewritten in fundamental-weight coordinates by the
      Cartan matrix, pairs with its own coroot to 2 in the model
    - a RootSystem is frozen: no attribute can be set and it has no __dict__;
      its fields are type_tag, rank, columns and sparse_cartan, so it keeps no
      dense Cartan matrix
    - each system is built and walked once per process and every later call
      returns the same object, whose roots are packed in one immutable bytes
      per node and unpacked afresh on each read, within a bound set by
      MAX_RANK; a refused type or rank adds no cache entry, and a float rank
      is not served an int's
    - sparse_cartan holds exactly the nonzero entries of each Cartan column
    - the packed sigma-heights never carry from one root's byte into the
      next: over every node they are each root's coefficient sum (up to 63
      at B32 and C32), over random node sets its sum over those nodes
"""

import random
from math import gcd

import pytest
from common import all_pairs
from hypothesis import given, strategies as st
from weyl_model import WeylModel, dot, reflect as model_reflect

from relbgg import Weight, build_root_system, reflect, relative_hasse
from relbgg import bgg, roots
from relbgg.roots import MAX_RANK

ALL_TYPES = (("A", 1), ("B", 2), ("C", 2), ("D", 3))  # (tag, smallest rank)


def symmetrizer(tag, rank):
    """Squared lengths of the simple roots over their gcd: d[i]C[i][j] = d[j]C[j][i]."""
    lengths = [dot(a, a) for a in WeylModel(tag, rank).simple]
    return tuple(x // gcd(*lengths) for x in lengths)


# -- construction ------------------------------------------------------------

def test_a1_smallest_case():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert roots._cartan_matrix("A", 1) == ((2,),)


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
    """The walked positive roots up to rank 12 against WeylModel (tests/weyl_model.py)."""
    rs = build_root_system(tag, rank)
    assert list(rs.positive_roots) == WeylModel(tag, rank).positive_roots


@pytest.mark.parametrize("tag,lo", ALL_TYPES)
def test_walk_matches_row_sum_walk_up_to_rank_cap(tag, lo):
    """The walked and the cached positive roots up to MAX_RANK against WeylModel (tests/weyl_model.py)."""
    # the first call walks and packs, the second unpacks the cached entry
    build_root_system.cache_clear()
    for rank in range(lo, MAX_RANK + 1):
        want = WeylModel(tag, rank).positive_roots
        for _ in range(2):
            assert list(build_root_system(tag, rank).positive_roots) == want, rank


def _check_orbit_walk(walk, cols, starts, nodes):
    """_orbit_walk's contract: the starts first with parent -1, then each
    point s_letter of an earlier parent, its letter a node and its first
    negative coordinate, and no point twice.  Returns the walk's points."""
    points = [nu for nu, _, _ in walk]
    assert points[:len(starts)] == list(starts)
    assert [parent for _, parent, _ in walk[:len(starts)]] == [-1] * len(starts)
    for k, (nu, parent, letter) in enumerate(walk[len(starts):], len(starts)):
        assert 0 <= parent < k and letter in nodes, (k, parent, letter)
        assert nu == roots._reflect_coords(cols, letter, points[parent]), k
        assert next(j for j, c in enumerate(nu) if c < 0) == letter, (k, nu)
    assert len(set(points)) == len(points)
    return points


def _recording_walks(monkeypatch, module):
    """Every call of module._orbit_walk as (cols, starts, nodes, limit, walk)."""
    walk, calls = roots._orbit_walk, []

    def recording_walk(cols, starts, nodes, limit):
        calls.append((cols, list(starts), list(nodes), limit, walk(cols, starts, nodes, limit)))
        return calls[-1][-1]

    monkeypatch.setattr(module, "_orbit_walk", recording_walk)
    return calls


@pytest.mark.parametrize("tag,lo", ALL_TYPES)
def test_orbit_walk_contract_on_every_root_walk(tag, lo, monkeypatch):
    """Every root walk up to MAX_RANK, as _enumerate_positive_roots calls it:
    one entry per positive root, r(r+1)/2, r^2, r^2 and r(r-1) for A-D, within
    its bound of r^2."""
    count = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r,
             "C": lambda r: r * r, "D": lambda r: r * (r - 1)}[tag]
    calls = _recording_walks(monkeypatch, roots)
    for rank in range(lo, MAX_RANK + 1):
        rs = build_root_system(tag, rank)
        calls.clear()  # the build walked unless rs was cached
        roots._enumerate_positive_roots(roots._cartan_matrix(tag, rank), rs.sparse_cartan)
        (cols, starts, nodes, limit, walk), = calls
        assert cols is rs.sparse_cartan and nodes == list(range(rank)) and limit == rank * rank
        assert len(_check_orbit_walk(walk, cols, starts, nodes)) == count(rank), rank


def test_orbit_walk_contract_on_every_hasse_walk(monkeypatch):
    """Every Hasse walk of a nested pair of A1-A5, B2-B5, C2-C5 and D3-D5, as
    relative_hasse calls it, one start at mu, bounded by the diagram's size.
    The first-negative test reads the coordinates outside the Levi nodes too:
    each stays >= 0."""
    calls = _recording_walks(monkeypatch, bgg)
    walked = 0
    for tag, lo in ALL_TYPES:
        for rank in range(lo, 6):
            for pair in all_pairs(rank, tag):
                where = (tag, rank, sorted(pair.sigma_q), sorted(pair.sigma_p))
                relative_hasse(pair)
                (cols, starts, nodes, limit, walk), = calls
                calls.clear()
                assert limit == len(walk), where
                assert len(starts) == 1 and set(starts[0]) <= {0, 1}, where
                assert nodes == [i for i in range(rank) if i + 1 not in pair.sigma_p], where
                points = _check_orbit_walk(walk, cols, starts, nodes)
                off = [i for i in range(rank) if i not in nodes]
                assert all(nu[i] >= 0 for nu in points for i in off), where
                walked += 1
    assert walked == 1434  # 3^r nested pairs on each rank-r diagram


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
    # the system is shared, but its roots live packed in immutable bytes and
    # each read of positive_roots unpacks a fresh tuple
    first, second = build_root_system("C", 6), build_root_system("C", 6)
    assert first == second
    assert first.positive_roots == second.positive_roots == first.positive_roots
    assert isinstance(first.columns, tuple) and len(first.columns) == first.rank
    assert all(type(c) is bytes and len(c) == len(first.positive_roots) for c in first.columns)
    assert first.positive_roots is not second.positive_roots


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
            size += sum(len(c) for c in build_root_system(tag, rank).columns)
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
        rs, cartan = build_root_system(tag, rank), roots._cartan_matrix(tag, rank)
        for i, col in enumerate(rs.sparse_cartan):
            assert col == tuple((m, row[i]) for m, row in enumerate(cartan) if row[i])
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
    m = WeylModel("A", 4)
    assert m.fundamental(m.eps((0, 2, 0, 0))) == (-1, 2, -1, 0)
    assert m.fundamental(m.eps((0, 0, 0, 2))) == (0, 0, -1, 2)


def test_root_to_weight_highest_root_a3():
    m = WeylModel("A", 3)
    assert m.fundamental(m.eps((2, 2, 2))) == (1, 0, 1)


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
    m = WeylModel("A", 4)
    assert m.pairing(m.weight((-1, 2, 1, 1)), m.eps((0, 1, 0, 0))) == 2
    assert m.pairing(m.weight((1, -2, 3, 1)), m.eps((0, 1, 1, 0))) == 1
    assert m.pairing(m.weight((9, 0, 4, -3)), m.eps((0, 1, 0, 0))) == 0


@pytest.mark.parametrize(
    "tag,rank", [("A", 1), ("A", 4), ("A", 6), ("B", 3), ("C", 3), ("D", 4)]
)
def test_pairing_of_root_with_itself_is_two(tag, rank):
    rs, m, cartan = build_root_system(tag, rank), WeylModel(tag, rank), roots._cartan_matrix(tag, rank)
    for beta in rs.positive_roots:
        weight = tuple(sum(c * b for c, b in zip(row, beta)) for row in cartan)
        assert m.pairing(m.weight(weight), m.eps(beta)) == 2, beta


def test_symmetrizer_values():
    assert symmetrizer("A", 4) == (1, 1, 1, 1)
    assert symmetrizer("B", 3) == (2, 2, 1)
    assert symmetrizer("C", 3) == (1, 1, 2)
    assert symmetrizer("D", 4) == (1, 1, 1, 1)
    assert symmetrizer("B", 2) == (2, 1)
    assert symmetrizer("C", 2) == (1, 2)


def test_symmetrizer_symmetrizes_every_cartan_matrix():
    for tag, lo in ALL_TYPES:
        for rank in range(lo, 25):
            c = roots._cartan_matrix(tag, rank)
            d = symmetrizer(tag, rank)
            assert len(d) == rank and all(x > 0 for x in d)
            assert gcd(*d) == 1
            for i in range(rank):
                for j in range(rank):
                    assert d[i] * c[i][j] == d[j] * c[j][i], (tag, rank, i, j)


@pytest.mark.parametrize(
    "tag,rank", [(tag, n) for tag, lo in ALL_TYPES for n in range(lo, 9)]
)
def test_pairing_matches_symmetrizer_reference(tag, rank):
    """reflect against the pairing of WeylModel (tests/weyl_model.py):
    <s_i w, (s_i beta)^vee> = <w, beta^vee>, with s_i beta the model's
    reflection of the epsilon vector beta."""
    rs, m = build_root_system(tag, rank), WeylModel(tag, rank)
    rng = random.Random(f"pairing:{tag}{rank}")
    for beta in m.positive:
        w = tuple(rng.randint(-9, 9) for _ in range(rank))
        want = m.pairing(m.weight(w), beta)
        for i, alpha in enumerate(m.simple, 1):
            got = m.pairing(m.weight(reflect(rs, i, Weight(w)).coeffs), model_reflect(alpha, beta))
            assert got == want, (beta, w, i)


# -- the model sees a wrong Cartan matrix ------------------------------------

def _swap_b_and_c(c, n):
    """Put the -2 of B_n where C_n has it, and the other way round."""
    c[n - 2][n - 1], c[n - 1][n - 2] = c[n - 1][n - 2], c[n - 2][n - 1]


def _fork_at_n_minus_1(c, n):
    """Attach node n of D_n to node n-1 instead of n-2."""
    c[n - 3][n - 1] = c[n - 1][n - 3] = 0
    c[n - 2][n - 1] = c[n - 1][n - 2] = -1


@pytest.fixture
def fresh_cache():
    """Clear the root-system cache before and after, so no other test sees a patched build."""
    build_root_system.cache_clear()
    yield
    build_root_system.cache_clear()


@pytest.mark.parametrize("edit, tags", [(_swap_b_and_c, "BC"), (_fork_at_n_minus_1, "D")])
def test_model_sees_a_wrong_cartan_matrix(monkeypatch, fresh_cache, edit, tags):
    """The model-backed root and reflection checks fail on the mutant at every
    rank up to 8: the model does not read the engine's Cartan matrix."""
    real = roots._cartan_matrix

    def mutant(tag, rank):
        c = [list(row) for row in real(tag, rank)]
        edit(c, rank)
        return tuple(map(tuple, c))

    monkeypatch.setattr(roots, "_cartan_matrix", mutant)
    for tag in tags:
        for rank in range(3 if tag == "D" else 2, 9):
            for check in (test_walk_matches_root_chain_reference, test_pairing_matches_symmetrizer_reference):
                with pytest.raises(AssertionError):
                    check(tag, rank)


# -- immutability ------------------------------------------------------------

def test_root_system_keeps_no_dense_cartan_matrix():
    assert roots.RootSystem._fields == ("type_tag", "rank", "columns", "sparse_cartan")


def test_root_system_is_frozen():
    rs = build_root_system("B", 3)
    assert not hasattr(rs, "__dict__")
    for name in (*rs._fields, "symmetrizer", "extra"):
        with pytest.raises(AttributeError):
            setattr(rs, name, None)
    assert rs == build_root_system("B", 3)
