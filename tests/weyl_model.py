"""A-D roots and Weyl groups in the epsilon basis, the tests' expected values
written apart from the engine: nothing is imported from ``relbgg``.  Roots,
simple-root coordinates and fundamental weights are those of perfbench/lie.py
(Bourbaki, ch. VI, Plates I-IV), so a wrong Cartan matrix in the engine cannot
move a value computed here.  Vectors are integer tuples of epsilon coordinates
(n + 1 of them for A_n); a weight is held doubled, as 2*lambda, so it is
integral.  A Weyl group element w is held as the images w(e_k), a signed
permutation matrix (Bjorner & Brenti, ch. 8), so w^{-1} is its transpose.
Nodes are 1-based.
"""

import itertools
import pathlib
import sys
from operator import mul

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import lie  # noqa: E402


def dot(u, v):
    return sum(map(mul, u, v))


def reflect(alpha, v):
    """s_alpha v = v - (2(v, alpha)/(alpha, alpha)) alpha."""
    k, r = divmod(2 * dot(v, alpha), dot(alpha, alpha))
    assert r == 0, (alpha, v)
    return tuple(a - k * b for a, b in zip(v, alpha)) if k else v


def apply(w, v):
    """w(v) = sum over k of v_k w(e_k)."""
    return tuple(dot(v, row) for row in zip(*w))


def nested_pairs(n):
    """Every (sigma_q, sigma_p) with sigma_p <= sigma_q <= {1, ..., n}."""
    for q_mask in itertools.product((0, 1), repeat=n):
        sq = [i for i, b in zip(range(1, n + 1), q_mask) if b]
        for p_mask in itertools.product((0, 1), repeat=len(sq)):
            yield frozenset(sq), frozenset(i for i, b in zip(sq, p_mask) if b)


class WeylModel:
    """The roots and Weyl group of type ``t`` (A-D) and rank ``n``."""

    def __init__(self, t, n):
        self.t, self.n = t, n
        self.positive = lie._eps_positive_roots(t, n)
        by_coords = {self.coords(r): r for r in self.positive}
        self.simple = [by_coords[tuple(int(j == i) for j in range(n))] for i in range(n)]
        dim = len(self.simple[0])
        self.identity = tuple(tuple(int(j == k) for j in range(dim)) for k in range(dim))
        self.rho = tuple(map(sum, zip(*self.positive)))  # 2 rho, positive on every positive root

    def coords(self, v):
        """Simple-root coordinates of a vector of the root lattice."""
        return lie._to_simple(self.t, self.n, v)

    def eps(self, coords):
        """The vector with the given simple-root coordinates."""
        return apply(self.simple, coords)

    @property
    def positive_roots(self):
        """Simple-root coordinates of the positive roots, by height, then coordinates."""
        return sorted(map(self.coords, self.positive), key=lambda c: (sum(c), c))

    def weight(self, coeffs):
        """The doubled weight with the given fundamental-weight coordinates."""
        return tuple(lie.eps_doubled(self.t, self.n, tuple(coeffs)))

    def pairing(self, x, beta):
        """<lambda, beta^vee> = 2(lambda, beta)/(beta, beta) of the doubled weight x = 2 lambda."""
        q, r = divmod(dot(x, beta), dot(beta, beta))
        assert r == 0, (x, beta)
        return q

    def fundamental(self, x):
        """Fundamental-weight coordinates of the doubled weight x."""
        return tuple(self.pairing(x, a) for a in self.simple)

    def length(self, w):
        """The positive roots alpha that w^{-1} sends negative: (w(rho), alpha) < 0."""
        x = apply(w, self.rho)
        return sum(dot(x, a) < 0 for a in self.positive)

    def times(self, i, w):
        """s_i w."""
        return tuple(reflect(self.simple[i - 1], col) for col in w)

    def element(self, gens):
        """The product of the simple reflections of a word, rightmost applied first."""
        w = self.identity
        for i in reversed(gens):
            w = self.times(i, w)
        return w

    def hasse(self, sigma_q, sigma_p):
        """The words of W^q_p by length, then word: each w in W_L, enumerated by
        left multiplication, with w^{-1}(alpha_j) > 0, or (w(rho), alpha_j) > 0,
        at every node j outside sigma_q.  The word of w reverses the first
        reduced word of v = w^{-1}, found by taking v's smallest left descent
        i, where (v(rho), alpha_i) < 0, each time."""
        levi = [i for i in range(1, self.n + 1) if i not in sigma_p]
        group, seen = [self.identity], {self.identity}
        for w in group:
            new = {self.times(i, w) for i in levi} - seen
            seen |= new
            group += new
        out = []
        for w in group:
            x = apply(w, self.rho)
            if any(dot(x, self.simple[j - 1]) < 0 for j in levi if j not in sigma_q):
                continue
            x, word = tuple(dot(col, self.rho) for col in w), []  # v(rho)
            while x != self.rho:
                i = next(i for i, a in enumerate(self.simple, 1) if dot(x, a) < 0)
                word.append(i)
                x = reflect(self.simple[i - 1], x)
            out.append((self.length(w), tuple(word[::-1])))
        return [word for _, word in sorted(out)]

    def chain_roots(self, words):
        """The positive roots beta_k with s_beta w_k = w_{k+1} if the words give
        one element of each length 0..N, each a root reflection of the last."""
        ws = [self.element(word) for word in words]
        if [self.length(w) for w in ws] != list(range(len(ws))):
            return None
        betas = [next((b for b in self.positive if tuple(reflect(b, c) for c in w) == u), None)
                 for w, u in zip(ws, ws[1:])]
        return None if None in betas else betas

    def label(self, gens, coeffs):
        """The shifted action w(lambda + rho) - rho, in fundamental-weight coordinates."""
        x = apply(self.element(gens), tuple(a + b for a, b in zip(self.weight(coeffs), self.rho)))
        return self.fundamental(tuple(a - b for a, b in zip(x, self.rho)))

    def components(self, sigma_q, sigma_p):
        """Every root of either sign, sorted, by bidegree (i', i''): i' is its
        sigma_p-height and i' + i'' its sigma_q-height.  (0, 0) is always present."""
        out = {(0, 0): []}
        for r in map(self.coords, self.positive):
            for s in (r, tuple(-c for c in r)):
                hp = sum(s[i - 1] for i in sigma_p)
                out.setdefault((hp, sum(s[i - 1] for i in sigma_q) - hp), []).append(s)
        return {bd: sorted(roots) for bd, roots in out.items()}
