"""Answers the benchmark computes on its own, sharing no code with torusbrauer.

Everything here is plain enumeration over small finite sets: group closure
of generator pairs, fixed vectors of (Z/n)^k under a list of matrices, and
the Tate-cohomology count |A^G| / |N_G A| for a cyclic group acting on a
finite module.  The sizes the workloads use keep every enumeration below a
few thousand vectors.
"""

from __future__ import annotations

import itertools
import math


# ---------------------------------------------------------------------------
# small integer linear algebra
# ---------------------------------------------------------------------------


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[int]]:
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def scale(a, c: int) -> list[list[int]]:
    return [[c * x for x in row] for row in a]


def block_diag(a, b) -> list[list[int]]:
    n, m = len(a), len(b)
    return [list(a[i]) + [0] * m for i in range(n)] + [[0] * n + list(b[i]) for i in range(m)]


def permutation_matrix(p) -> list[list[int]]:
    """e_j -> e_{p(j)}."""
    n = len(p)
    return [[int(p[j] == i) for j in range(n)] for i in range(n)]


def finite_order_inverse(a) -> list[list[int]]:
    """Inverse of an integer matrix of finite order: its last power before 1."""
    one = identity(len(a))
    prev, power = one, a
    for _ in range(1000):
        if power == one:
            return prev
        prev, power = power, matmul(power, a)
    raise ValueError("matrix does not have small finite order")


def pairs(r: int):
    return list(itertools.combinations(range(r), 2))


def wedge2(a) -> list[list[int]]:
    """Lambda^2 of a on the basis e_i ^ e_j, i < j, in lexicographic order."""
    ps = pairs(len(a))
    return [
        [a[i][k] * a[j][l] - a[i][l] * a[j][k] for (k, l) in ps]
        for (i, j) in ps
    ]


def apply_mod(a, v, n: int) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) % n for row in a)


# ---------------------------------------------------------------------------
# finite abelian groups as the CLI prints them
# ---------------------------------------------------------------------------


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of the direct sum of the Z/m, m >= 1."""
    by_prime: dict[int, list[int]] = {}
    for m in orders:
        p = 2
        while m > 1:
            if p * p > m:
                p = m
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                by_prime.setdefault(p, []).append(q)
            p += 1
    depth = max((len(v) for v in by_prime.values()), default=0)
    for v in by_prime.values():
        v.sort()
        v[:0] = [1] * (depth - len(v))
    factors = [math.prod(v[i] for v in by_prime.values()) for i in range(depth)]
    return tuple(f for f in factors if f > 1)


def group_order(text: str) -> int | None:
    """Order of a group printed as '0' or 'Z/a + Z/b + ...'; None if infinite."""
    if text == "0":
        return 1
    order = 1
    for part in text.split(" + "):
        if not part.startswith("Z/"):
            return None
        order *= int(part[2:])
    return order


def group_factors(text: str) -> tuple[int, ...]:
    return () if text == "0" else tuple(int(p[2:]) for p in text.split(" + "))


# ---------------------------------------------------------------------------
# Galois data: closure, pair orbits and fixed symbols per orbit
# ---------------------------------------------------------------------------


def close_galois(r: int, M: int, generators) -> list[tuple[tuple[int, ...], int]]:
    """All (perm, unit) products of the generators in S_r x (Z/M)^*."""
    gens = [(tuple(p), u % M) for p, u in generators]
    one = (tuple(range(r)), 1 % M)
    seen = {one}
    frontier = [one]
    while frontier:
        p, u = frontier.pop()
        for q, v in gens:
            x = (tuple(p[q[i]] for i in range(r)), (u * v) % M)
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return sorted(seen)


def pair_orbits(r: int, elements) -> list[tuple[tuple[int, int], ...]]:
    """Orbits of the unordered pairs {i, j}, each sorted, listed by minimum."""
    out, seen = [], set()
    for pair in pairs(r):
        if pair in seen:
            continue
        orbit = {tuple(sorted((p[pair[0]], p[pair[1]]))) for p, _ in elements}
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


def fixed_symbol_count(pair, elements, M: int) -> int:
    """#{x in Z/M : x e_ij is fixed by the stabiliser of {i, j}}.

    g sends e_ij to chi(g)^-1 * sign * e_ij, with sign -1 when g swaps i and j,
    so x is fixed exactly when x * (sign - chi(g)) = 0 mod M.
    """
    i, j = pair
    conditions = []
    for p, u in elements:
        if {p[i], p[j]} == {i, j}:
            conditions.append((1 if p[i] == i else -1) - u)
    return sum(1 for x in range(M) if all(x * c % M == 0 for c in conditions))


def brauer_expectation(doc: dict) -> dict:
    """Per-orbit (size, order) keyed by 1-based representative pair, and the
    invariant factors of the whole fixed group, from the generators alone."""
    r, M = doc["r"], doc["M"]
    elements = close_galois(r, M, [(g["perm"], g["unit"]) for g in doc["generators"]])
    orbits = {}
    for orbit in pair_orbits(r, elements):
        rep = orbit[0]
        orbits[(rep[0] + 1, rep[1] + 1)] = (len(orbit), fixed_symbol_count(rep, elements, M))
    factors = invariant_factors(order for _, order in orbits.values())
    return {"group_order": len(elements), "orbits": orbits, "invariant_factors": factors}


# ---------------------------------------------------------------------------
# fixed vectors and cyclic-group cohomology by enumeration
# ---------------------------------------------------------------------------


def fixed_count(actions, n: int) -> int:
    """Number of v in (Z/n)^k with a v = v mod n for every matrix a."""
    k = len(actions[0]) if actions else 0
    return sum(
        1
        for v in itertools.product(range(n), repeat=k)
        if all(apply_mod(a, v, n) == v for a in actions)
    )


def hom_action(rho, chi, n: int, degree: int):
    """Matrices of g on Hom(Lambda^degree N, mu_n): f -> chi(g) f(rho(g)^-1 .).

    degree is 1 or 2; a vector f lists f(e_S) over the basis e_S.
    """
    out = []
    for m, u in zip(rho, chi):
        inv = finite_order_inverse(m)
        w = inv if degree == 1 else wedge2(inv)
        out.append([[(u * x) % n for x in row] for row in transpose(w)])
    return out


def cyclic_h2_order(actions, n: int) -> int:
    """|H^2(C, A)| = |A^C| / |N_C A| for a cyclic group C listed in full by
    its matrices on A = (Z/n)^k (Tate periodicity)."""
    k = len(actions[0])
    fixed = 0
    norms = set()
    for v in itertools.product(range(n), repeat=k):
        if all(apply_mod(a, v, n) == v for a in actions):
            fixed += 1
        images = [apply_mod(a, v, n) for a in actions]
        norms.add(tuple(sum(col) % n for col in zip(*images)))
    return fixed // len(norms)


def shapiro_h2_order(rho, chi, n: int) -> int:
    """|H^2(pi, Hom(N, mu_n))| for N induced from the rank-one line Z e_0.

    With H the stabiliser of the line, Shapiro's lemma gives H^2(H, B) where
    B = Hom(Z e_0, mu_n) = Z/n and h acts by chi(h) * eps(h), for
    rho(h) e_0 = eps(h) e_0.  H must be cyclic; it is C2 for the S3 lattices.
    """
    actions = []
    for m, u in zip(rho, chi):
        column = [row[0] for row in m]
        if column[1:] == [0] * (len(column) - 1) and column[0] in (1, -1):
            actions.append([[(u * column[0]) % n]])
    if len(actions) * len(rho[0]) != len(rho):
        raise ValueError("lattice is not induced from the line through e_0")
    return cyclic_h2_order(actions, n)
