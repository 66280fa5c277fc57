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


def _reflect_root_coords(
    cartan: tuple[tuple[int, ...], ...], i0: int, v: tuple[int, ...]
) -> tuple[int, ...]:
    k = sum(cartan[i0][j] * v[j] for j in range(len(v)))
    out = list(v)
    out[i0] -= k
    return tuple(out)


class HasseDiagram(NamedTuple):
    pair: ParabolicPair
    elements: tuple[WeylWord, ...]
    connecting_roots: tuple[Root, ...]  # beta_k with w_{k+1} = s_beta o w_k; () off a chain
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
    every word from one a step shorter), so w_{k+1} = w_k s_i and the
    connecting root is beta_k = w_k(alpha_i), positive because the length
    goes up.  A diagram that is not a chain gets no connecting roots.
    """
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
    connecting: list[Root] = []
    if is_chain:
        for wk, wk1 in zip(words, words[1:]):
            beta = tuple(1 if j == wk1.gens[-1] else 0 for j in range(1, rs.rank + 1))
            for g in reversed(wk.gens):
                beta = _reflect_root_coords(rs.cartan, g - 1, beta)
            if not rs.is_root(beta) or min(beta) < 0:
                raise InternalCheckError(f"connecting root {beta} after {wk.gens} is not positive")
            connecting.append(Root(beta))
    return HasseDiagram(
        pair=pair, elements=tuple(words), connecting_roots=tuple(connecting), is_chain=is_chain
    )


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
    weight, crossed at sigma_q; the order to the next entry pairs the
    current weight (rho-shifted) with the connecting root.
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
    entries = []
    for k, word in enumerate(diagram.elements):
        coeffs = affine_act(word, src.coeffs, rs)
        label = DynkinLabel(rs=rs, crossed=pair.sigma_q, coeffs=coeffs)
        q_verdict = validate_label(label, "Q", pair)
        if not q_verdict.ok:
            raise InternalCheckError(
                f"entry {k} produced the Q-invalid label {print_label(label)}"
            )
        order = None
        if k < len(diagram.connecting_roots):
            order = operator_order(coeffs, diagram.connecting_roots[k], rs)
        entries.append(BGGEntry(word=word, label=label, order_to_next=order))
    return BGGSequence(source=src, entries=tuple(entries))
