"""Builders the test modules share: nested parabolic pairs, the two geometric
families, source labels, and random torsion supports with the two properties
that both the acceptance suite and test_torsion check on them.

A pair is indexed by sigma_p <= sigma_q, the crossed nodes of the parabolics
q <= p.  Every enumeration of nested pairs is ``weyl_model.nested_pairs``.
"""

import random

from weyl_model import nested_pairs

from relbgg import (
    Bidegree,
    ParabolicPair,
    TorsionComponent,
    TorsionSupport,
    build_root_system,
    corollary_33_check,
    involutivity_check,
    theorem_322_check,
)


def make_pair(rank, sq, sp, type_tag="A"):
    return ParabolicPair(
        rs=build_root_system(type_tag, rank), sigma_q=frozenset(sq), sigma_p=frozenset(sp)
    )


def path_pair(n=3):
    """Path-type blocks 1, 1, n on sl(n+2)."""
    return make_pair(n + 1, {1, 2}, {1})


def legendrean_pair(n):
    """Contact-type blocks 1, n, 1 on sl(n+2)."""
    return make_pair(n + 1, {1, n + 1}, {1})


def all_pairs(rank, type_tag="A"):
    """Every nested pair of one diagram, in the model's order."""
    return (make_pair(rank, sq, sp, type_tag) for sq, sp in nested_pairs(rank))


def listed_roots(rows):
    """The coefficient tuples a ``RootRows`` lists, in order: the negatives of
    its negated rows, then its positive rows."""
    negated, positive = rows
    return tuple(tuple(-c for c in r) for r in negated) + tuple(map(tuple, positive))


def label_text(type_tag, rank, crossed, coeffs):
    """A Dynkin label as the CLI reads it, such as A4[x,o,o,o](-2,1,0,0)."""
    marks = ",".join("x" if i in crossed else "o" for i in range(1, rank + 1))
    return f"{type_tag}{rank}[{marks}]({','.join(map(str, coeffs))})"


def p_dominant_coeffs(rank, sigma_p, randint, bound=4):
    """In node order: randint(-bound, bound) at the nodes of sigma_p, randint(0, bound) elsewhere."""
    return [randint(-bound, bound) if i in sigma_p else randint(0, bound) for i in range(1, rank + 1)]


# -- random torsion supports -------------------------------------------------

NEG_BIDEGREES = [
    Bidegree(0, -1), Bidegree(0, -2), Bidegree(-1, 0), Bidegree(-1, -1),
    Bidegree(-2, 0), Bidegree(-2, -1), Bidegree(-1, -2),
]
OUT_BIDEGREES = NEG_BIDEGREES + [Bidegree(0, 0), Bidegree(1, 0), Bidegree(0, 1)]


def random_component(rng):
    return TorsionComponent(
        in1=rng.choice(NEG_BIDEGREES),
        in2=rng.choice(NEG_BIDEGREES),
        out=rng.choice(OUT_BIDEGREES),
    )


def random_support(rng, max_components=4):
    return TorsionSupport(
        components=frozenset(
            random_component(rng) for _ in range(rng.randint(0, max_components))
        )
    )


def check_torsion_monotonicity(seed, cases):
    """Adding a component to a support never turns a failed verdict into a pass."""
    rng = random.Random(seed)
    pair = legendrean_pair(4)
    for _ in range(cases):
        ts = random_support(rng)
        bigger = TorsionSupport(components=ts.components | {random_component(rng)})
        if involutivity_check(bigger).ok:
            assert involutivity_check(ts).ok
        cor_small = corollary_33_check(ts, pair)
        cor_big = corollary_33_check(bigger, pair)
        if cor_big.part1:
            assert cor_small.part1
        if cor_big.part2:
            assert cor_small.part2


def check_strict_implies_non_strict(seed, cases):
    """A strict theorem_322_check pass implies the non-strict one, and
    corollary_33_check's part 2 implies its part 1."""
    rng = random.Random(seed)
    pair = legendrean_pair(4)
    for _ in range(cases):
        ts = random_support(rng)
        ip = rng.randint(-3, -1)
        if theorem_322_check(ts, ip, strict=True).ok:
            assert theorem_322_check(ts, ip, strict=False).ok
        cor = corollary_33_check(ts, pair)
        if cor.part2:
            assert cor.part1
