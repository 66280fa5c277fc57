"""Root-system facts for types A-D, written from the epsilon-basis model.

This module shares no code with the program under test: the checkers use
it to re-derive every number the program prints.  Nodes are 1-based.
"""

from __future__ import annotations


def dim_g(t: str, n: int) -> int:
    return {"A": n * (n + 2), "B": n * (2 * n + 1), "C": n * (2 * n + 1), "D": n * (2 * n - 1)}[t]


def n_positive(t: str, n: int) -> int:
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[t]


def _eps_positive_roots(t: str, n: int) -> list[tuple[int, ...]]:
    """Positive roots as epsilon vectors (length n+1 for A, n otherwise)."""
    dim = n + 1 if t == "A" else n

    def e(*terms):
        v = [0] * dim
        for sign, i in terms:
            v[i] += sign
        return tuple(v)

    roots = [e((1, i), (-1, j)) for i in range(dim) for j in range(i + 1, dim)]
    if t != "A":
        roots += [e((1, i), (1, j)) for i in range(n) for j in range(i + 1, n)]
    if t == "B":
        roots += [e((1, i)) for i in range(n)]
    if t == "C":
        roots += [e((2, i)) for i in range(n)]
    return roots


def _to_simple(t: str, n: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Simple-root coordinates of an epsilon vector in the root lattice.

    Simple roots: e_i - e_{i+1}; last one e_n (B), 2e_n (C), e_{n-1}+e_n (D).
    """
    prefix = []
    s = 0
    for x in v[:n]:
        s += x
        prefix.append(s)
    if t == "C":
        prefix[n - 1] //= 2
    if t == "D":
        prefix[n - 2] = (prefix[n - 2] - v[n - 1]) // 2
        prefix[n - 1] //= 2
    return tuple(prefix)


def positive_roots(t: str, n: int) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, sorted."""
    return sorted(_to_simple(t, n, v) for v in _eps_positive_roots(t, n))


def edges(t: str, n: int) -> set[frozenset[int]]:
    """Dynkin diagram edges between 1-based nodes."""
    if t == "D":
        out = {frozenset((i, i + 1)) for i in range(1, n - 1)}
        out.add(frozenset((n - 2, n)))
        return out
    return {frozenset((i, i + 1)) for i in range(1, n)}


def components(t: str, n: int, nodes: set[int]) -> list[list[int]]:
    """Connected components of the diagram restricted to the given nodes."""
    es = edges(t, n)
    left, out = set(nodes), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            stack += [j for j in left if frozenset((i, j)) in es and j not in comp]
        left -= comp
        out.append(sorted(comp))
    return out


def is_type_a(t: str, n: int, comp: list[int]) -> bool:
    """Whether a Levi component is of type A: no double edge, no branch node."""
    if t in "BC" and n - 1 in comp and n in comp:
        return False
    return not (t == "D" and {n - 2, n - 1, n} <= set(comp) and len(comp) > 3)


def path_endpoints(t: str, n: int, comp: list[int]) -> list[int]:
    """Nodes of degree <= 1 inside the component."""
    es = edges(t, n)
    return [i for i in comp if sum(frozenset((i, j)) in es for j in comp) <= 1]


def eps_doubled(t: str, n: int, coeffs: tuple[int, ...]) -> list[int]:
    """Twice the epsilon coordinates of a weight given in fundamental coordinates.

    Fundamental weights: e_1+..+e_i, except omega_n = (e_1+..+e_n)/2 in B and
    omega_{n-1}, omega_n = (e_1+..+e_{n-1} -+ e_n)/2 in D.  Type A uses n+1
    coordinates with the last one 0.
    """
    a = list(coeffs)
    if t == "A":
        return [2 * sum(a[j:]) for j in range(n + 1)]
    if t == "C":
        return [2 * sum(a[j:]) for j in range(n)]
    if t == "B":
        return [2 * sum(a[j : n - 1]) + a[n - 1] for j in range(n)]
    head = [2 * sum(a[j : n - 2]) + a[n - 2] + a[n - 1] for j in range(n - 1)]
    return head + [a[n - 1] - a[n - 2]]


def orbit_key(t: str, n: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """A Weyl-orbit invariant of a weight: sorted coordinates, shifted (A) or unsigned."""
    x = eps_doubled(t, n, coeffs)
    if t == "A":
        lo = min(x)
        return tuple(sorted(c - lo for c in x))
    return tuple(sorted(abs(c) for c in x))
