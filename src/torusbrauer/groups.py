"""Finite groups, actions on lattices and finite modules, Galois data for
quasi-trivial tori, and the decomposition of involution lattices into
trivial / sign / induced summands."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter

from .errors import (
    NonSignCharacterOnLatticeError,
    NotAnInvolutionError,
    NotASubgroupError,
    ValidationError,
)
from .intlat import IntMatrix, _det, _smith_reduce, smith

MAX_GROUP_ORDER = 10000
# The largest r of a Galois datum: qt-brauer works on the r(r-1)/2 coordinate
# pairs, and r = 120 (7,140 pairs) already takes seconds.
MAX_RANK = 120
# The largest rank of a real-torus involution: d2 on the canonical lattice
# grows as rank^4, and the worst type at rank 32, (32, 0, 0), takes about
# 1.2 s at the default levels 2,4 (2 cores, Python 3.11).
MAX_INVOLUTION_RANK = 32
# The most levels one real-torus call takes: each level runs its own d2.  At
# rank 32 eight levels 2..9 take about 2.1 s and 36 MB; the worst case, eight
# levels of 4,200 digits (near the longest integer Python parses), 16 s and
# 48 MB (2 cores, Python 3.11).
MAX_REAL_TORUS_LEVELS = 8


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table on element ids 0..n-1.  Id 0 is the identity.

    `generators` is a generating set, chosen greedily in id order: an id is
    taken when it is not yet a product of the ids taken before it.  Each new
    generator at least doubles the subgroup reached, so there are at most
    log2 |G| of them.

    A map rho with rho(0) = 1 is a homomorphism as soon as rho(sh) =
    rho(s) rho(h) for every generator s and every h: the g for which this
    holds for all h contain 0 and are closed under products.  GaloisDatum
    and CoeffModule (a G-lattice when it has no modulus) check that, |S|·|G|
    products in place of |G|²."""

    table: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = self.table
        n = len(t)
        if n == 0:
            raise ValidationError("malformed multiplication table")
        for row in t:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise ValidationError("malformed multiplication table")
        for g in range(n):
            if t[0][g] != g or t[g][0] != g:
                raise ValidationError("id 0 is not a two-sided identity")
        for g in range(n):
            if 0 not in t[g]:
                raise ValidationError(f"element {g} has no inverse")
        object.__setattr__(self, "generators", _greedy_generators(t))
        # Light's test: the s with (xs)y = x(sy) for all x, y are closed
        # under products and include 0, so checking each generator s is
        # checking every triple; row xs must be row x read through row s
        for s in self.generators:
            through_s = itemgetter(*t[s])
            for x in range(n):
                if t[t[x][s]] != through_s(t[x]):
                    raise ValidationError("multiplication is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.table[g].index(0)

    def elements(self):
        return range(len(self.table))

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            n += 1
        return n

    def generator_if_cyclic(self) -> int | None:
        for g in self.elements():
            if self.element_order(g) == self.order:
                return g
        return None

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup(((0,),))

    @staticmethod
    def cyclic(m: int) -> "FiniteGroup":
        if m > MAX_GROUP_ORDER:
            raise ValidationError(f"cyclic group of order {m} exceeds {MAX_GROUP_ORDER}")
        twice = tuple(range(m)) * 2  # row i is (i + j) % m for j < m
        return FiniteGroup(tuple(twice[i : i + m] for i in range(m)))

    @staticmethod
    def from_concrete(elements, mul, identity) -> tuple["FiniteGroup", list]:
        """Close a generating set under multiplication; returns the abstract
        group plus the element list (identity listed first).

        Concrete products are only right multiplications by S, the listed
        elements that earlier ones do not generate (|S|·|G| of them, the cap
        checked as each element is reached).  The table follows by lookups,
        a·(x·s) = (a·x)·s, so its column s reproduces every product computed,
        and FiniteGroup's checks make it a group table (a `mul` that is not
        associative passes only if its right multiplications by S act as a
        group's do).  Element ids, which documents index action matrices by,
        follow the closure order replayed on the table: the identity and the
        listed elements, then passes in which each a listed when the pass
        starts multiplies the elements listed when a's turn comes (row a goes
        on where the last pass stopped), each new product listed at once."""
        elems, index = [identity], {identity: 0}
        moves, step, listed = [], [None], [0]  # moves[k] = (s_k, [x·s_k for each id x])

        def add(e, x, k):  # e = elems[x]·s_k
            if len(elems) == MAX_GROUP_ORDER:
                raise ValidationError(f"generated group has more than {MAX_GROUP_ORDER} elements")
            index[e] = len(elems)
            elems.append(e)
            step.append((x, k))
            return index[e]

        for e in elements:
            if e not in index:
                moves.append((e, []))
                add(e, 0, len(moves) - 1)
                for x, a in enumerate(elems):  # also visits what this loop appends
                    for k, (s, move) in enumerate(moves):
                        if len(move) == x:
                            c = mul(a, s)
                            move.append(index[c] if c in index else add(c, x, k))
            listed.append(index[e])
        if (n := len(elems)) == 1:
            return FiniteGroup.trivial(), elems
        cols = [tuple(range(n))]  # cols[b][a] = a·b
        for x, k in step[1:]:
            cols.append(itemgetter(*cols[x])(moves[k][1]))
        order = list(dict.fromkeys(listed))
        placed, done, size = set(order), [0] * n, 0
        while size < len(order) < n:
            size = len(order)
            for i, a in enumerate(order[:size]):
                stop = len(order)
                for b in order[done[i] : stop]:
                    if (c := cols[b][a]) not in placed:
                        placed.add(c)
                        order.append(c)
                done[i] = stop
        rank, reorder = sorted(range(n), key=order.__getitem__), itemgetter(*order)
        for b in order:  # each column relabelled in place, the old one dropped
            cols[b] = itemgetter(*reorder(cols[b]))(rank)
        return FiniteGroup(tuple(zip(*map(cols.__getitem__, order)))), [elems[x] for x in order]

    @staticmethod
    def symmetric(n: int) -> tuple["FiniteGroup", list]:
        if symmetric_order(n) > MAX_GROUP_ORDER:
            raise ValidationError(
                f"symmetric group of degree {n} has more than {MAX_GROUP_ORDER} elements"
            )
        perms = [tuple(p) for p in itertools.permutations(range(n))]
        ident = tuple(range(n))
        perms.remove(ident)

        def mul(p, q):  # (p*q)(i) = p(q(i))
            return tuple(p[q[i]] for i in range(n))

        return FiniteGroup.from_concrete(perms, mul, ident)

    @staticmethod
    def direct_product(g1: "FiniteGroup", g2: "FiniteGroup") -> "FiniteGroup":
        pairs = [(a, b) for a in g1.elements() for b in g2.elements()]

        def mul(x, y):
            return (g1.mul(x[0], y[0]), g2.mul(x[1], y[1]))

        grp, _ = FiniteGroup.from_concrete(pairs, mul, (0, 0))
        return grp


def symmetric_order(n: int) -> int:
    """n!, or a partial product k! over MAX_GROUP_ORDER that stands for it:
    the order passes the cap at a small k, and multiplying stops there."""
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > MAX_GROUP_ORDER:
            break
    return order


def _greedy_generators(table) -> tuple[int, ...]:
    """Scan ids in order and take each one that right products of the ids
    already taken, starting from 0, do not reach."""
    seen = bytearray(len(table))
    seen[0] = 1
    reached, gens = [0], []
    for g in range(len(table)):
        if seen[g]:
            continue
        gens.append(g)
        for x in reached:  # also visits what this loop appends
            row = table[x]
            for s in gens:
                if not seen[row[s]]:
                    seen[row[s]] = 1
                    reached.append(row[s])
    return tuple(gens)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `ambient`, with `embed[h] = ambient id of h`."""

    ambient: FiniteGroup
    group: FiniteGroup
    embed: tuple[int, ...]

    @property
    def index(self) -> int:
        return self.ambient.order // self.group.order

    def left_coset_reps(self) -> tuple[int, ...]:
        """One representative per left coset gH; the identity represents H."""
        seen = set()
        reps = []
        for g in self.ambient.elements():
            coset = frozenset(self.ambient.mul(g, h) for h in self.embed)
            if coset not in seen:
                seen.add(coset)
                reps.append(g)
        return tuple(reps)


def subgroup_from_ids(G: FiniteGroup, ids) -> Subgroup:
    ids = sorted(set(ids) | {0})
    idset = set(ids)
    for a in ids:
        for b in ids:
            if G.mul(a, b) not in idset:
                raise NotASubgroupError("subset is not closed under multiplication")
    index = {g: i for i, g in enumerate(ids)}
    table = tuple(tuple(index[G.mul(a, b)] for b in ids) for a in ids)
    return Subgroup(G, FiniteGroup(table), tuple(ids))


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    ids = {0}
    frontier = set(gens)
    while frontier:
        ids |= frontier
        frontier = {
            G.mul(a, b) for a in ids for b in ids
        } - ids
    return subgroup_from_ids(G, ids)


@dataclass(frozen=True)
class GaloisDatum:
    """Finite image of the Galois group acting on r permuted characters,
    together with the cyclotomic character mod M (M even)."""

    group: FiniteGroup
    r: int
    M: int
    perm: tuple[tuple[int, ...], ...]  # perm[g][i] = g(i), 0-based
    chi: tuple[int, ...]

    def __post_init__(self):
        G = self.group
        if self.r > MAX_RANK:
            raise ValidationError(f"rank r = {self.r} exceeds {MAX_RANK}")
        if self.M < 2 or self.M % 2:
            raise ValidationError("modulus M must be even (mu_2 is always rational)")
        if len(self.perm) != G.order or len(self.chi) != G.order:
            raise ValidationError("perm/chi tables must cover the whole group")
        for p in self.perm:
            if sorted(p) != list(range(self.r)):
                raise ValidationError("perm values must be permutations of 0..r-1")
        if self.perm[0] != tuple(range(self.r)):
            raise ValidationError("identity must act trivially")
        if self.chi[0] % self.M != 1 % self.M:
            raise ValidationError("chi(identity) must be 1")
        for u in self.chi:
            if gcd(u, self.M) != 1:
                raise ValidationError("chi values must be units mod M")
        for g in G.generators:  # enough: see FiniteGroup
            for h in G.elements():
                gh = G.mul(g, h)
                composed = tuple(self.perm[g][self.perm[h][i]] for i in range(self.r))
                if composed != self.perm[gh]:
                    raise ValidationError("perm is not a homomorphism")
                if (self.chi[g] * self.chi[h] - self.chi[gh]) % self.M:
                    raise ValidationError("chi is not a homomorphism")

    @staticmethod
    def from_generators(r: int, M: int, pairs) -> "GaloisDatum":
        """Build the subgroup of S_r x (Z/M)^* generated by (perm, unit) pairs.

        Permutations are 0-based tuples of length r.
        """
        if r > MAX_RANK:  # before the closure composes permutations of length r
            raise ValidationError(f"rank r = {r} exceeds {MAX_RANK}")
        gens = [(tuple(p), u % M) for p, u in pairs]
        ident = (tuple(range(r)), 1 % M)

        def mul(x, y):
            p, u = x
            q, v = y
            return (tuple(p[q[i]] for i in range(r)), (u * v) % M)

        grp, elems = FiniteGroup.from_concrete(gens, mul, ident)
        return GaloisDatum(
            grp,
            r,
            M,
            tuple(e[0] for e in elems),
            tuple(e[1] for e in elems),
        )


def random_galois_datum(rng, max_rank: int = 4, moduli=(2, 4, 6, 8, 12)) -> GaloisDatum:
    """A random datum: r in 2..max_rank, M drawn from `moduli`, and 0-2
    generators (perm, unit), each a shuffled permutation of range(r) and a
    unit mod M, drawn from `rng` in that order."""
    r = rng.randrange(2, max_rank + 1)
    M = rng.choice(moduli)
    units = [u for u in range(1, M) if gcd(u, M) == 1]
    pairs = []
    for _ in range(rng.randrange(0, 3)):
        p = list(range(r))
        rng.shuffle(p)
        pairs.append((tuple(p), rng.choice(units)))
    return GaloisDatum.from_generators(r, M, pairs)


@dataclass(frozen=True)
class CoeffModule:
    """(Z/n)^k with a finite-group action, or, when modulus is None, the
    G-lattice Z^k with the group acting by GL_k(Z) matrices."""

    group: FiniteGroup
    rank: int
    modulus: int | None
    action: tuple[IntMatrix, ...]

    def __post_init__(self):
        G = self.group
        n = self.modulus
        if n is not None and n < 2:
            raise ValidationError("modulus must be >= 2 when present")
        if len(self.action) != G.order:
            raise ValidationError("one matrix per group element required")
        for m in self.action:
            if m.rows != self.rank or m.cols != self.rank:
                raise ValidationError("action matrix has wrong shape")
            if n is not None and any(
                not 0 < x < n for row in m.nonzeros for x in row.values()
            ):
                raise ValidationError("entries must be reduced mod n")
        if self.action[0] != IntMatrix.identity(self.rank):
            raise ValidationError("identity must act as the identity matrix")
        for g in G.generators:  # enough: see FiniteGroup
            for h in G.elements():
                if self.action[g].mul(self.action[h], modulus=n) != self.action[G.mul(g, h)]:
                    what = "lattice" if n is None else "module"
                    raise ValidationError(f"{what} action is not a homomorphism")

    @staticmethod
    def make(group, rank, modulus, matrices) -> "CoeffModule":
        mats = tuple(
            m.mod(modulus) if modulus is not None else m for m in matrices
        )
        return CoeffModule(group, rank, modulus, mats)

    @staticmethod
    def trivial(group: FiniteGroup, rank: int, modulus: int | None) -> "CoeffModule":
        ident = IntMatrix.identity(rank)
        return CoeffModule.make(group, rank, modulus, [ident] * group.order)

    @staticmethod
    def mu(group: FiniteGroup, n: int, chi_values) -> "CoeffModule":
        """Rank-1 module Z/n with g acting by the unit chi_values[g]."""
        mats = [IntMatrix.from_rows([[chi_values[g] % n]]) for g in group.elements()]
        return CoeffModule.make(group, 1, n, mats)

    def direct_sum(self, other: "CoeffModule") -> "CoeffModule":
        if self.group != other.group:
            raise ValidationError("direct sum needs a common group")
        if self.modulus != other.modulus:
            raise ValidationError("direct sum needs a common modulus")
        r1, r = self.rank, self.rank + other.rank
        mats = []
        for a, b in zip(self.action, other.action):
            shifted = tuple({r1 + j: x for j, x in row.items()} for row in b.nonzeros)
            mats.append(IntMatrix(a.nonzeros + shifted, r, r))
        return CoeffModule(self.group, r, self.modulus, tuple(mats))

    def restrict(self, sub: Subgroup) -> "CoeffModule":
        return CoeffModule(
            sub.group,
            self.rank,
            self.modulus,
            tuple(self.action[sub.embed[h]] for h in sub.group.elements()),
        )

    def act(self, g: int, vec):
        return self.action[g].apply(vec, modulus=self.modulus)

    def reduce(self, vec):
        if self.modulus is None:
            return tuple(vec)
        return tuple(x % self.modulus for x in vec)


def unimodular_inverse(B: IntMatrix) -> IntMatrix:
    if B.rows != B.cols:
        raise ValidationError("not square")
    s = smith(B)
    if any(d != 1 for d in s.diagonal()):
        raise ValidationError("matrix is not unimodular")
    # B = Uinv D Vinv = Uinv Vinv, so B^-1 = V U
    return s.V.mul(s.U)


def permutation_lattice(datum: GaloisDatum) -> CoeffModule:
    """Character lattice of the quasi-trivial torus: permutation matrices."""
    mats = []
    for p in datum.perm:
        rows = [None] * datum.r
        for j, i in enumerate(p):  # e_j goes to e_p(j)
            rows[i] = {j: 1}
        mats.append(IntMatrix(tuple(rows), datum.r, datum.r))
    return CoeffModule(datum.group, datum.r, None, tuple(mats))


def tate_twist(lattice: CoeffModule, chi_values) -> CoeffModule:
    """Multiply every action matrix by the sign chi_values[g]."""
    for u in chi_values:
        if u not in (1, -1):
            raise NonSignCharacterOnLatticeError(
                "lattice twists need a sign-valued character"
            )
    mats = tuple(m.scale(chi_values[g]) for g, m in zip(lattice.group.elements(), lattice.action))
    return CoeffModule.make(lattice.group, lattice.rank, lattice.modulus, mats)


@dataclass(frozen=True)
class C2Decomposition:
    a: int  # trivial summands Z
    b: int  # sign summands Z(1)
    c: int  # induced rank-2 summands
    P: IntMatrix  # unimodular, P^-1 * S * P is the canonical block matrix

    @property
    def B(self) -> IntMatrix:
        """P^-1, so that B * S * B^-1 is the canonical block matrix."""
        return unimodular_inverse(self.P)

    def canonical_matrix(self) -> IntMatrix:
        return canonical_involution(self.a, self.b, self.c)


def canonical_involution(a: int, b: int, c: int) -> IntMatrix:
    """The canonical block matrix of type (a, b, c): a entries 1, then b
    entries -1, then c swap blocks [[0, 1], [1, 0]] on the diagonal."""
    n = a + b + 2 * c
    rows = [[0] * n for _ in range(n)]
    for i in range(a):
        rows[i][i] = 1
    for i in range(a, a + b):
        rows[i][i] = -1
    for t in range(c):
        i = a + b + 2 * t
        rows[i][i + 1] = 1
        rows[i + 1][i] = 1
    return IntMatrix.from_rows(rows, ncols=n)


def c2_decompose(S: IntMatrix) -> C2Decomposition:
    """Split an integral involution into trivial/sign/induced blocks (I.
    Reiner, Proc. AMS 8 (1957)): two eliminations, and a check by one
    product and one determinant.

    The Smith form U (S + 1) V = D has its k nonzero entries first, so the
    last p = n - k columns L of the unimodular V are a basis of N- = ker(S +
    1), and its first k columns A complete L to a basis of N.  As (S - 1)(S +
    1) = 0, (S - 1) A lies in N-, so S A = A + L X with X the last p rows of
    V^-1 times (S - 1) A.  The Smith form Y X Z = D turns the bases into L' =
    L Y^-1 and A' = A Z, on which S A'_j = A'_j + d_j L'_j, and A'_j + (d_j //
    2) L'_j leaves d_j mod 2 in its place.  The odd d_j come first, since
    d_1 | d_2 | ...; each gives an induced pair (A'_j, S A'_j).  The other
    A'_j are fixed and the other L'_i are negated.  These columns, in that
    order, are the basis P that `_verified` checks.
    """
    n = S.rows
    ident = IntMatrix.identity(n)
    if S.cols != n or S.mul(S) != ident:
        raise NotAnInvolutionError("matrix is not an involution")

    plus = _smith_reduce(S.add(ident), None, {"V", "V_inv"})
    k = sum(1 for dj in plus.diagonal() if dj)
    p = n - k
    A = IntMatrix(tuple(plus.V_cols[:k]), k, n).transpose()
    L = IntMatrix(tuple(plus.V_cols[k:]), p, n).transpose()
    X = IntMatrix(tuple(plus.V_inv[k:]), p, n).mul(S.mul(A).add(A.scale(-1)))
    coupling = _smith_reduce(X, None, {"U_inv", "V"})
    L1 = L.mul(IntMatrix(tuple(coupling.U_inv_cols), p, p).transpose())
    A1 = A.mul(IntMatrix(tuple(coupling.V_cols), k, k).transpose())
    d = coupling.diagonal()
    c = sum(dj % 2 for dj in d)
    fixed = [A1.column(j) for j in range(k)]
    for j, dj in enumerate(d):
        fixed[j] = tuple(x + dj // 2 * y for x, y in zip(fixed[j], L1.column(j)))
    basis = fixed[c:] + [L1.column(i) for i in range(c, p)]
    for g in fixed[:c]:
        basis += [g, S.apply(g)]
    return _verified(S, k - c, p - c, c, IntMatrix.from_columns(basis, nrows=n))


def _verified(S: IntMatrix, a: int, b: int, c: int, P: IntMatrix) -> C2Decomposition:
    """The decomposition whose basis is the columns of P, once S P = P C is
    checked for the canonical block matrix C of type (a, b, c), and |det P|
    = 1.  Then P is unimodular and P^-1 S P = C: every caller that works on
    the canonical form relies on this isomorphism."""
    out = C2Decomposition(a, b, c, P)
    if S.mul(P) != P.mul(out.canonical_matrix()) or abs(_det([list(r) for r in P.entries])) != 1:
        raise ValidationError("decomposition verification failed")
    return out


def involution_lattice(S: IntMatrix) -> CoeffModule:
    """C2-lattice defined by a single involution matrix."""
    if S.mul(S) != IntMatrix.identity(S.rows):
        raise NotAnInvolutionError("matrix is not an involution")
    return CoeffModule(FiniteGroup.cyclic(2), S.rows, None, (IntMatrix.identity(S.rows), S))


def pair_module(datum: GaloisDatum, m: int) -> CoeffModule:
    """The module of level-m symbols (y_i, y_j): basis e_ij (i < j), with
    g . e_ij = chi(g)^{-1} * sign * e_{g(i) g(j)} (alternating convention)."""
    if m < 2:
        raise ValidationError("modulus must be >= 2")
    r = datum.r
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    index = {p: t for t, p in enumerate(pairs)}
    mats = []
    for g in datum.group.elements():
        if gcd(datum.chi[g] % m, m) != 1:
            raise ValidationError("chi values must be units mod the given modulus")
        u = pow(datum.chi[g] % m, -1, m)
        p = datum.perm[g]
        rows = [None] * len(pairs)
        for (i, j), t in index.items():
            gi, gj = p[i], p[j]
            sign = 1
            if gi > gj:
                gi, gj = gj, gi
                sign = -1
            rows[index[(gi, gj)]] = {t: (sign * u) % m}
        mats.append(IntMatrix(tuple(rows), len(pairs), len(pairs)))
    return CoeffModule(datum.group, len(pairs), m, tuple(mats))
