"""Relative BGG sequence shapes: Hasse diagram, shifted Weyl action, orders.

The bundles of a relative BGG sequence are indexed by minimal-length coset
representatives taken inside the Weyl group of the Levi factor of p: an
element w qualifies iff w^{-1} keeps the simple roots of the uncrossed
sigma_q nodes positive.  One breadth-first orbit walk lists them by length,
then by word, as it finds them.  Words compose right-to-left (rightmost
generator acts first), and weights move by the shifted action
w.l = w(l + rho) - rho, as the worked examples in the test suite pin.

Only sequence shapes are computed: bundle labels and operator orders, no
differential operators.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dynkin import DynkinLabel, print_label, validate_label
from .grading import ParabolicPair, _height_strings
from .roots import InternalCheckError, RootSystem, Weight, _reflect_coords, _SparseColumns


class WeylWord(NamedTuple):
    """A reduced word in simple reflections; rightmost generator applied first."""

    gens: tuple[int, ...]


# Largest relative Hasse diagram walked; B15 with sigma_q = {1, 15} and
# sigma_p = {1} has 16,384 elements and walks in well under a second.
MAX_HASSE_ELEMENTS = 20_000


def _levi_quotient(pair: ParabolicPair) -> tuple[int, int]:
    """(N, |W_L| / |W_{L & q}|) over the positive roots of bidegree (0, i'' > 0),
    the roots of the Levi of p outside the Levi of q: N counts them, the longest
    length, and the size is Macdonald's product of (ht + 1) / ht over them."""
    rs = pair.rs
    every = rs.sigma_heights(range(1, rs.rank + 1))
    heights = [h for ip, idp, h in zip(*_height_strings(pair), every) if not ip and idp]
    return len(heights), math.prod(h + 1 for h in heights) // math.prod(heights)


class HasseDiagram(NamedTuple):
    elements: tuple[WeylWord, ...]
    is_chain: bool


def relative_hasse(
    pair: ParabolicPair, *, closed_form: tuple[int, int] | None = None
) -> HasseDiagram:
    """Minimal-length representatives indexing the relative sequence.

    Walks the orbit of mu = sum of omega_j over sigma_q minus sigma_p under
    the Weyl group of the Levi of p (nodes outside sigma_p), reflecting at a
    Levi node only where the weight is positive, which lengthens v by one.
    The stabilizer of mu is generated by the nodes outside sigma_q, so orbit
    points nu = v(mu) match the elements w = v^{-1} with w^{-1}(alpha_j)
    positive for every node j outside sigma_q.  The left descents of v are
    the Levi nodes i with nu_i < 0 (Bjorner & Brenti, 2.4-2.5); each point
    is entered once, from s_i nu for its first descent i, so its word, read
    from the left as w = v^{-1}, is its parent's with i appended.  Parents
    come in list order and letters ascend, so the list comes out of the walk
    sorted by length, then by word, with lengths 0..top, top the last word's.

    N, the longest length, and the size |W_L| / |W_{L & q}| are known in
    closed form; ``closed_form`` passes in (N, size) as ``_levi_quotient``
    gives it, which is evaluated here when left None.  A size above
    ``MAX_HASSE_ELEMENTS`` is refused with ValueError before the walk, and a
    walk of another size or with top other than N raises
    InternalCheckError.  So the diagram is a chain, one element per length,
    exactly when its size is N + 1; each word then extends the previous one
    by one generator i, so w_{k+1} = w_k s_i.
    """
    n, size = _levi_quotient(pair) if closed_form is None else closed_form
    if size > MAX_HASSE_ELEMENTS:
        raise ValueError(
            f"the relative Hasse diagram has {size} elements, "
            f"above the supported maximum {MAX_HASSE_ELEMENTS}"
        )
    rs = pair.rs
    cols = rs.sparse_cartan
    levi = [i for i in range(rs.rank) if i + 1 not in pair.sigma_p]
    mu = tuple(int(i in pair.sigma_q and i not in pair.sigma_p) for i in range(1, rs.rank + 1))
    orbit = [(mu, ())]  # orbit point nu = v(mu) and the reduced word of w = v^{-1}
    for nu, word in orbit:
        for i in levi:
            if nu[i] > 0:
                nxt = _reflect_coords(cols, i, nu)
                if i == next(j for j in levi if nxt[j] < 0):
                    orbit.append((nxt, word + (i + 1,)))
    top = len(orbit[-1][1])
    if len(orbit) != size or top != n:
        raise InternalCheckError(
            f"the relative Hasse walk reached {len(orbit)} points over {top + 1} lengths "
            f"up to {top}, not |W_L|/|W_(L&q)| = {size} over the lengths 0..{n}, "
            f"on {rs.type_tag}{rs.rank} sigma_q={sorted(pair.sigma_q)} "
            f"sigma_p={sorted(pair.sigma_p)}"
        )
    return HasseDiagram(elements=tuple(WeylWord(w) for _, w in orbit), is_chain=size == n + 1)


def _shifted(cols: _SparseColumns, gens: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    """w(mu) - rho for mu = l + rho, unchecked: the letters of w move mu by the
    walk's ``_reflect_coords`` over ``cols``, rightmost first."""
    for g in reversed(gens):
        mu = _reflect_coords(cols, g - 1, mu)
    return tuple(c - 1 for c in mu)


def affine_act(w: WeylWord, lam: Weight, rs: RootSystem) -> Weight:
    """Shifted action w.l = w(l + rho) - rho, where rho, the half-sum of the
    positive roots, is the all-ones weight."""
    if len(lam.coeffs) != rs.rank:
        raise ValueError("weight length does not match rank")
    for g in w.gens:
        rs._check_node(g)
    return Weight(_shifted(rs.sparse_cartan, w.gens, tuple(c + 1 for c in lam.coeffs)))


class BGGEntry(NamedTuple):
    word: WeylWord
    label: DynkinLabel
    order_to_next: int | None


class BGGSequence(NamedTuple):
    entries: tuple[BGGEntry, ...]


def relative_bgg_sequence(src: DynkinLabel, pair: ParabolicPair) -> BGGSequence:
    """The sequence shape generated by a dominant P-representation label.

    ``validate_label`` decides dominance on both ends: a source that fails it
    for role P is refused with ValueError, and an entry that fails it for
    role Q raises InternalCheckError.  Only a chain has one sequence shape.
    The closed form (N, size) is evaluated once: a pair whose size exceeds
    N + 1 is refused with ValueError before any walk, and the same value goes
    to ``relative_hasse``, which refuses a diagram above the cap unwalked; its
    length check makes every other diagram a chain, one word per length.

    Entry k carries the shifted action of the k-th Hasse word on the source
    weight, crossed at sigma_q.  The order to the next entry is
    <lambda_k + rho, beta_k^vee> along the connecting root beta_k = w_k(alpha_i),
    where w_{k+1} = w_k s_i.
    """
    rs = pair.rs
    if (src.rs.type_tag, src.rs.rank) != (rs.type_tag, rs.rank):
        raise ValueError("label and pair live on different diagrams")
    verdict = validate_label(src, "P", pair)
    if not verdict.ok:
        raise ValueError(
            f"source label {print_label(src)} is not P-dominant "
            f"(negative at nodes {list(verdict.negative_uncrossed)})"
        )
    closed_form = n, size = _levi_quotient(pair)
    if n + 1 < size <= MAX_HASSE_ELEMENTS:
        raise ValueError(
            "the relative Hasse diagram is not linear for this pair; "
            "a single sequence shape is not defined"
        )
    diagram = relative_hasse(pair, closed_form=closed_form)
    # A chain's words are prefixes of its last, so w_{k+1} = w_k s_i for its
    # (k+1)-th letter i.  Weyl invariance: <w_k(src + rho), w_k(alpha_i)^vee> =
    # <src + rho, alpha_i^vee> = src_i + 1, since rho is the all-ones weight.
    orders = [src.coeffs.coeffs[i - 1] + 1 for i in diagram.elements[-1].gens] + [None]
    cols, mu = rs.sparse_cartan, tuple(c + 1 for c in src.coeffs.coeffs)
    # _make skips the node and length checks of DynkinLabel(): sigma_q is the
    # validated pair's and each weight has the validated source's length
    entries = []
    for k, (word, order) in enumerate(zip(diagram.elements, orders)):
        label = DynkinLabel._make((rs, pair.sigma_q, Weight(_shifted(cols, word.gens, mu))))
        if not validate_label(label, "Q", pair).ok:
            raise InternalCheckError(
                f"entry {k} produced the Q-invalid label {print_label(label)}"
            )
        entries.append(BGGEntry(word=word, label=label, order_to_next=order))
    return BGGSequence(entries=tuple(entries))
