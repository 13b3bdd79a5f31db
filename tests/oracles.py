"""Group orders counted by enumeration, sharing no code with torusbrauer.

Plain Python over small finite sets: the fixed vectors of (Z/n)^k under a
list of integer matrices, |H^1| and |H^2| of a cyclic group on a finite
module by Tate periodicity, |H^1(C, A)| = |ker N_C| / |(g - 1) A| and
|H^2(C, A)| = |A^C| / |N_C A|, the fixed symbols of each pair orbit of a
Galois datum, and the type of an integral involution.  Lattices and
characters are given as lists: rho lists one integer matrix per group
element and chi one sign per element, in the same order.  The tests keep
every enumeration below about 10^5 vectors.

For a non-cyclic group, |H^q(G, (Z/n)^k)| is counted on the normalised bar
complex (cochains on q-tuples of non-identity elements), with the kernel
orders of its coboundaries read off a diagonalisation over each Z/p^e
dividing n.

For a cyclic group, the chain maps between its periodic resolution and the
bar resolution are written out in degrees 0..3, so that a cochain on one
side can be read on the other with no lifting.
"""

from __future__ import annotations

import itertools


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def inverse_of_finite_order(a):
    """a^-1 = a^(k-1) for the order k of a (at most 12 for the test lattices)."""
    one = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    prev, power = one, a
    for _ in range(12):
        if power == one:
            return prev
        prev, power = power, matmul(power, a)
    raise ValueError("matrix has no small finite order")


def wedge2(a):
    """Lambda^2 a on the basis e_i ^ e_j (i < j) in lexicographic order."""
    pairs = list(itertools.combinations(range(len(a)), 2))
    return [[a[i][k] * a[j][l] - a[i][l] * a[j][k] for k, l in pairs] for i, j in pairs]


def hom_action(rho, chi, n: int, degree: int):
    """The matrices of g on Hom(Lambda^degree N, mu_n), f -> chi(g) f(g^-1 .),
    in the coordinates f(e_S); degree is 1 or 2."""
    out = []
    for a, u in zip(rho, chi):
        inv = inverse_of_finite_order(a)
        w = inv if degree == 1 else wedge2(inv)
        out.append([[u * x % n for x in col] for col in zip(*w)])
    return out


def _apply(a, v, n: int):
    return tuple(sum(x * y for x, y in zip(row, v)) % n for row in a)


def fixed_count(actions, n: int) -> int:
    """#{v in (Z/n)^k : a v = v for every matrix a}."""
    k = len(actions[0])
    return sum(
        all(_apply(a, v, n) == v for a in actions)
        for v in itertools.product(range(n), repeat=k)
    )


def tate_h2_order(actions, n: int) -> int:
    """|H^2(C, (Z/n)^k)| for a cyclic group C listed in full by its matrices:
    the fixed vectors over the image of the norm, sum of all matrices."""
    k = len(actions[0])
    norm = [[sum(col) for col in zip(*rows)] for rows in zip(*actions)]
    image = {_apply(norm, v, n) for v in itertools.product(range(n), repeat=k)}
    return fixed_count(actions, n) // len(image)


def tate_h1_order(actions, n: int) -> int:
    """|H^1(C, (Z/n)^k)| for a cyclic group C listed in full by its matrices,
    the identity first and a generator g second: the kernel of the norm over
    the image of g - 1."""
    k = len(actions[0])
    norm = [[sum(col) for col in zip(*rows)] for rows in zip(*actions)]
    g_minus_1 = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(actions[1])]
    vectors = list(itertools.product(range(n), repeat=k))
    zero = (0,) * k
    kernel = sum(_apply(norm, v, n) == zero for v in vectors)
    image = {_apply(g_minus_1, v, n) for v in vectors}
    return kernel // len(image)


def _kernel_order_prime_power(rows, ncols: int, p: int, e: int) -> int:
    """|{x in (Z/p^e)^ncols : A x = 0}| for A given by its dense rows.

    Over Z/p^e an entry of least p-adic valuation divides every entry, so
    it clears its column by row operations and its row by column operations
    that touch no other row: each pivot p^v * unit splits off a diagonal
    entry whose image has order p^(e - v).  The rows are held as
    {column: entry} while they are reduced, which keeps a bar coboundary
    of about 1,400 x 200 well under a second.
    """
    q = p**e
    live = [r for r in ({j: x % q for j, x in enumerate(row) if x % q} for row in rows) if r]
    image = 1
    while live:
        best = None  # (valuation, row, column)
        for i, row in enumerate(live):
            for j, x in row.items():
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == 0:
                        break
            if best[0] == 0:
                break
        v, i, j = best
        pivot = live.pop(i)
        pv = p**v
        unit_inv = pow(pivot[j] // pv, -1, q)
        rest = []
        for row in live:
            if j in row:
                f = row[j] // pv * unit_inv % q
                for c, b in pivot.items():
                    y = (row.get(c, 0) - f * b) % q
                    if y:
                        row[c] = y
                    else:
                        row.pop(c, None)
                if not row:
                    continue
            rest.append(row)
        live = rest
        image *= p ** (e - v)
    return q**ncols // image


def kernel_order(rows, ncols: int, n: int) -> int:
    """|{x in (Z/n)^ncols : A x = 0 mod n}|, one prime power of n at a time."""
    out, m, p = 1, n, 2
    while m > 1:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out *= _kernel_order_prime_power(rows, ncols, p, e)
        p += 1
    return out


def _bar_coboundary(table, actions, n: int, q: int):
    """Dense rows of the normalised bar coboundary C^q -> C^(q+1) over
    (Z/n)^k, element 0 the identity:
    (df)(g_1..g_(q+1)) = g_1 f(g_2..) + sum_i (-1)^i f(.., g_i g_(i+1), ..)
                         + (-1)^(q+1) f(g_1..g_q),
    with f = 0 on every tuple that holds the identity."""
    k = len(actions[0])
    nonid = range(1, len(table))
    col = {T: i for i, T in enumerate(itertools.product(nonid, repeat=q))}
    one = [[int(a == b) for b in range(k)] for a in range(k)]
    rows = []
    for T in itertools.product(nonid, repeat=q + 1):
        block = [[0] * (len(col) * k) for _ in range(k)]
        faces = [(T[1:], actions[T[0]], 1)]
        faces += [(T[: i - 1] + (table[T[i - 1]][T[i]],) + T[i + 1 :], one, (-1) ** i)
                  for i in range(1, q + 1)]
        faces.append((T[:-1], one, (-1) ** (q + 1)))
        for face, mat, sign in faces:
            if face in col:  # a face holding the identity is zero
                base = col[face] * k
                for a in range(k):
                    for b in range(k):
                        block[a][base + b] += sign * mat[a][b]
        rows.extend([x % n for x in row] for row in block)
    return rows, len(col) * k


def bar_h_order(table, actions, n: int, q: int) -> int:
    """|H^q(G, (Z/n)^k)| for the group with multiplication table `table`
    (element 0 the identity) acting by the matrices `actions`, one per
    element: |ker d_q| * |ker d_(q-1)| / |C^(q-1)|, since the image of
    d_(q-1) has order |C^(q-1)| / |ker d_(q-1)|."""
    cycles = kernel_order(*_bar_coboundary(table, actions, n, q), n)
    if q == 0:
        return cycles
    rows, ncols = _bar_coboundary(table, actions, n, q - 1)
    return cycles * kernel_order(rows, ncols, n) // n**ncols


def _powers(table, t):
    """[1, t, t^2, ..] up to the order of t, element 0 the identity."""
    out = [0]
    while table[out[-1]][t] != 0:
        out.append(table[out[-1]][t])
    return out


def periodic_sigma_star(table, t, z, k: int, q: int):
    """The value on e_q of the pullback of the bar q-cochain z (flat: the
    tuple in lexicographic order, then the coordinate in (Z/n)^k) along the
    chain map sigma from the periodic resolution of the cyclic group <t>,
    d = t - 1 in odd degrees and the norm in even ones, to the bar
    resolution, written out: sigma_1(e) = [t], sigma_2(e) = sum_i [t^i|t],
    sigma_3(e) = sum_i [t|t^i|t], each term with g0 = 1."""
    powers, m = _powers(table, t), len(table)
    tuples = {0: [()], 1: [(t,)], 2: [(g, t) for g in powers], 3: [(t, g, t) for g in powers]}[q]
    out = [0] * k
    for T in tuples:
        idx = 0
        for g in T:
            idx = idx * m + g
        out = [a + b for a, b in zip(out, z[idx * k : (idx + 1) * k])]
    return out


def periodic_tau_star(table, t, actions, f, n, q: int):
    """The bar q-cochain [T] |-> f(tau_q[T]) (flat, as above, reduced mod n
    unless n is None) of the value f = f(e_q) on the periodic resolution of
    <t>, along the chain map tau back, written out with g = t^a:
    tau_1[a] = 1 + .. + t^(a-1), tau_2[a|b] = 1 if a + b >= |G| (the
    carry) and tau_3[a|b|c] = carry(b, c) * (1 + .. + t^(a-1))."""
    powers, m = _powers(table, t), len(table)
    exponent = {g: a for a, g in enumerate(powers)}
    out = []
    for T in itertools.product(range(m), repeat=q):
        a = [exponent[g] for g in T]
        if q == 0:
            terms = [0]
        elif q == 1:
            terms = powers[: a[0]]
        else:
            carry = a[-2] + a[-1] >= m
            terms = ([0] if q == 2 else powers[: a[0]]) if carry else []
        val = [0] * len(f)
        for g in terms:
            val = [x + sum(c * y for c, y in zip(row, f)) for x, row in zip(val, actions[g])]
        out.extend(x % n if n else x for x in val)
    return out


def involution_type(s):
    """The type (a, b, c) of an integral involution s, from invariants of its
    conjugacy class: c is the rank of s + 1 over F_2 (each swap block
    contributes 1, each +-1 entry 0), and a - b is the trace."""
    n = len(s)
    rows = [[(x + (i == j)) % 2 for j, x in enumerate(row)] for i, row in enumerate(s)]
    c = 0
    for col in range(n):
        pivot = next((r for r in range(c, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[c])]
        c += 1
    trace = sum(s[i][i] for i in range(n))
    return (n - 2 * c + trace) // 2, (n - 2 * c - trace) // 2, c


def shapiro_h2_order(rho, chi, n: int) -> int:
    """|H^2(pi, Hom(N, mu_n))| for N induced from the line through e_0.

    By Shapiro's lemma this is |H^2(H, Z/n)| for the stabiliser H of the
    line, where h acts on Hom(Z e_0, mu_n) = Z/n by chi(h) * eps(h), with
    rho(h) e_0 = eps(h) e_0.  H must be cyclic.
    """
    actions = []
    for a, u in zip(rho, chi):
        column = [row[0] for row in a]
        if column[0] in (1, -1) and not any(column[1:]):
            actions.append([[u * column[0] % n]])
    if len(actions) * len(rho[0]) != len(rho):
        raise ValueError("lattice is not induced from the line through e_0")
    return tate_h2_order(actions, n)


def galois_closure(r: int, M: int, generators):
    """All (perm, unit) products of the generators in S_r x (Z/M)^*, where
    (p, u)(q, v) = (p o q, u v)."""
    gens = [(tuple(p), u % M) for p, u in generators]
    one = (tuple(range(r)), 1 % M)
    seen, frontier = {one}, [one]
    while frontier:
        p, u = frontier.pop()
        for q, v in gens:
            x = (tuple(p[q[i]] for i in range(r)), u * v % M)
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


def brauer_orbit_orders(r: int, M: int, generators):
    """For each orbit of pairs {i, j}, the number of fixed symbols x e_ij.

    The pair module is the sum over orbits of modules induced from the
    stabiliser of a representative pair, so its fixed subgroup is the sum of
    cyclic groups of these orders.  An element (p, u) stabilising {i, j} sends
    x e_ij to u^-1 s x e_ij, with s = -1 when p swaps i and j, so x is fixed
    exactly when x (s - u) = 0 mod M.
    """
    elements = galois_closure(r, M, generators)
    orders, seen = [], set()
    for i, j in itertools.combinations(range(r), 2):
        if (i, j) in seen:
            continue
        seen |= {tuple(sorted((p[i], p[j]))) for p, _ in elements}
        conditions = [(1 if p[i] == i else -1) - u for p, u in elements if {p[i], p[j]} == {i, j}]
        orders.append(sum(all(x * c % M == 0 for c in conditions) for x in range(M)))
    return orders


def invariant_factors(orders):
    """Invariant factors d1 | d2 | ... (all > 1) of the sum of the Z/m."""
    powers = {}  # prime -> exponents of its primary parts
    for m in orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(e)
            p += 1
    depth = max((len(es) for es in powers.values()), default=0)
    factors = [1] * depth
    for p, es in powers.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[depth - 1 - k] *= p**e
    return tuple(factors)
