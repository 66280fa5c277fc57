"""Relative BGG sequence shapes: Hasse diagram, shifted Weyl action, orders.

The bundles of a relative BGG sequence are indexed by minimal-length coset
representatives taken inside the Weyl group of the Levi factor of p: an
element w qualifies iff w^{-1} keeps the simple roots of the uncrossed
sigma_q nodes positive.  Words compose right-to-left (rightmost generator
acts first), and weights move by the shifted action w.l = w(l + rho) - rho.
This convention is pinned by the worked examples in the test suite.

Only sequence shapes are computed: bundle labels and operator orders, no
differential operators.
"""

from __future__ import annotations

from typing import NamedTuple

from .dynkin import DynkinLabel, print_label, validate_label
from .grading import ParabolicPair
from .roots import Root, RootSystem, Weight, pairing, reflect


class InternalCheckError(RuntimeError):
    """A structural invariant the engine guarantees was violated."""


class WeylWord(NamedTuple):
    """A reduced word in simple reflections; rightmost generator applied first."""

    gens: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.gens)


# Largest relative Hasse diagram walked; B15 with sigma_q = {1, 15} and
# sigma_p = {1} has 16,384 elements and takes about half a second.
MAX_HASSE_ELEMENTS = 20_000


def hasse_size(pair: ParabolicPair) -> int:
    """Number of elements of the relative Hasse diagram, |W_L| / |W_{L & q}|.

    By Macdonald's product |W| = prod over positive roots of (ht + 1) / ht,
    this is the product over the roots of the Levi of p (support outside
    sigma_p) that are not roots of the Levi of q (support meets sigma_q).
    """
    num = den = 1
    for root in pair.rs.positive_roots:
        support = {i for i, c in enumerate(root.coeffs, 1) if c}
        if support & pair.sigma_q and not support & pair.sigma_p:
            height = sum(root.coeffs)
            num, den = num * (height + 1), den * height
    return num // den


class HasseDiagram(NamedTuple):
    pair: ParabolicPair
    elements: tuple[WeylWord, ...]
    is_chain: bool


def relative_hasse(pair: ParabolicPair) -> HasseDiagram:
    """Minimal-length representatives indexing the relative sequence.

    Walks the orbit of mu = sum of omega_j over sigma_q minus sigma_p under
    the Weyl group of the Levi of p (nodes outside sigma_p), reflecting at a
    Levi node only where the weight is positive.  The stabilizer of mu is
    generated by the nodes outside sigma_q, so orbit points nu = v(mu) match
    the elements w = v^{-1} with w^{-1}(alpha_j) positive for every node j
    outside sigma_q.  Elements are sorted by length, then lexicographically
    by word.

    The diagram is a chain when it has one element per length.  Each word
    then extends the previous one by one generator i (the peel below builds
    every word from one a step shorter), so w_{k+1} = w_k s_i.

    The size |W_L| / |W_{L & q}| is known in closed form before the walk;
    diagrams above ``MAX_HASSE_ELEMENTS`` are refused with ValueError.
    """
    size = hasse_size(pair)
    if size > MAX_HASSE_ELEMENTS:
        raise ValueError(
            f"the relative Hasse diagram has {size} elements, "
            f"above the supported maximum {MAX_HASSE_ELEMENTS}"
        )
    rs = pair.rs
    levi = [i for i in range(1, rs.rank + 1) if i not in pair.sigma_p]
    relative = pair.sigma_q - pair.sigma_p
    mu = Weight(tuple(1 if i in relative else 0 for i in range(1, rs.rank + 1)))
    orbit = [mu]
    seen = {mu}
    for nu in orbit:
        for i in levi:
            if nu.coeffs[i - 1] > 0:
                nxt = reflect(rs, i, nu)
                if nxt not in seen:
                    seen.add(nxt)
                    orbit.append(nxt)
    # The walk visits orbit points by length, so peeling the smallest Levi
    # node where nu is negative reaches a point whose word is known; this
    # spells the lexicographically smallest reduced word of v.
    v_words = {mu: ()}
    for nu in orbit[1:]:
        for i in levi:
            if nu.coeffs[i - 1] < 0:
                v_words[nu] = (i,) + v_words[reflect(rs, i, nu)]
                break
    words = [WeylWord(tuple(reversed(v_words[nu]))) for nu in orbit]
    words.sort(key=lambda w: (w.length, w.gens))
    is_chain = [w.length for w in words] == list(range(len(words)))
    return HasseDiagram(pair=pair, elements=tuple(words), is_chain=is_chain)


def affine_act(w: WeylWord, lam: Weight, rs: RootSystem) -> Weight:
    """Shifted action w.l = w(l + rho) - rho."""
    mu = lam + rs.rho
    for g in reversed(w.gens):
        mu = reflect(rs, g, mu)
    return mu - rs.rho


def operator_order(lambda_k: Weight, beta: Root, rs: RootSystem) -> int:
    """Order of the operator leaving the bundle with weight lambda_k: <l+rho, beta^vee>."""
    return pairing(lambda_k + rs.rho, beta, rs)


class BGGEntry(NamedTuple):
    word: WeylWord
    label: DynkinLabel
    order_to_next: int | None


class BGGSequence(NamedTuple):
    source: DynkinLabel
    entries: tuple[BGGEntry, ...]


def relative_bgg_sequence(src: DynkinLabel, pair: ParabolicPair) -> BGGSequence:
    """The sequence shape generated by a dominant P-representation label.

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
    diagram = relative_hasse(pair)
    if not diagram.is_chain:
        raise ValueError(
            "the relative Hasse diagram is not linear for this pair; "
            "a single sequence shape is not defined"
        )
    ends = [w.gens[-1] for w in diagram.elements[1:]]  # w_{k+1} = w_k s_i
    simples = [Root(tuple(int(j == i) for j in range(1, rs.rank + 1))) for i in ends]
    # Weyl invariance: <w_k(src + rho), w_k(alpha_i)^vee> = <src + rho, alpha_i^vee>.
    orders = [operator_order(src.coeffs, alpha, rs) for alpha in simples] + [None]
    entries = []
    for k, (word, order) in enumerate(zip(diagram.elements, orders)):
        coeffs = affine_act(word, src.coeffs, rs)
        label = DynkinLabel(rs=rs, crossed=pair.sigma_q, coeffs=coeffs)
        q_verdict = validate_label(label, "Q", pair)
        if not q_verdict.ok:
            raise InternalCheckError(
                f"entry {k} produced the Q-invalid label {print_label(label)}"
            )
        entries.append(BGGEntry(word=word, label=label, order_to_next=order))
    return BGGSequence(source=src, entries=tuple(entries))
