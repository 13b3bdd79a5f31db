"""Cohomology of finite groups with CoeffModule coefficients.

H^n(G, M) is computed on Hom_G(F, M) for one free resolution F of small
rank per group (`free_resolution`): a cyclic group's terms are the periodic
ones (norm / difference, given in every degree), any other group's are
built by integer linear algebra.  Degree 0 reads no term past F_1.

A cochain on F_n is a flat vector, indexed by the basis element e_b of F_n
and then the coordinate in M: the values f(e_b).  Classes carry one, and
`classify` and `coords_of` take one; a cocycle of a complex built on the
same F, such as a row cocycle of a twisted resolution, is one as it is.

Restriction to a subgroup H and the transfer back are chain maps between
F_H and F_G over Z[H], each one `chain_lift` through the contracting
homotopy of its target: phi: F_H -> F_G, and theta: F_G -> F_H, with F_G
read as a free Z[H]-module on the r.e_b, r a right coset rep (K. S. Brown,
Cohomology of Groups, III.9).  Every map of cochains is built by
`cochain_map` from chains: d_{p+1}(e_b) for `coboundary`, phi_n(e_b)
for restriction and the terms r^-1 * theta(r.e_b) for the transfer.

The bar cochain complex (functions on n-tuples of group elements, identity
components included) stays as the reference: `bar_cohomology` computes
H^n on it from `bar_delta_matrix`, for the selftest and the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import DisagreementError, ValidationError
from .groups import CoeffModule, FiniteGroup, Subgroup
from .intlat import (IntMatrix, Subquotient, _add_entry, _axpy, _columns_to_rows,
                     _kernel_columns, _smith_reduce)

MAX_DEGREE = 3

# The one bound on every memoised constructor: the cohomology engines,
# coboundaries, resolutions and subgroup chain maps here, the lattice
# cohomology modules and twisted resolutions in spectral.  One command builds
# a handful of each; the bound keeps a sweep over many documents in one
# process from holding all of them.
CACHE_SIZE = 32


# ---------------------------------------------------------------------------
# the bar resolution (unnormalized), the reference
# ---------------------------------------------------------------------------
# The degree-p term is free Z[G] on p-tuples; a chain is a dict {(T, g0):
# coeff} standing for the sum of the coeff * g0.[T].


class BarResolution:
    """Standard resolution of Z by free Z[G]-modules on tuples."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    def basis(self, p: int):
        return itertools.product(self.group.elements(), repeat=p)

    def boundary_of_basis(self, T):
        """d[T] as a chain of degree len(T)-1: the bar faces.  d_0 = 0: the
        resolution is not augmented."""
        mul, p = self.group.table, len(T)
        if not p:
            return {}
        out = {(T[1:], T[0]): 1}
        sign = 1
        for i in range(1, p + 1):
            sign = -sign
            # face i < p multiplies entries i-1 and i; face p drops the last
            face = T[: i - 1] + (mul[T[i - 1]][T[i]],) + T[i + 1 :] if i < p else T[:-1]
            _add_entry(out, (face, 0), sign, None)
        return out


# ---------------------------------------------------------------------------
# cochain complexes
# ---------------------------------------------------------------------------


def _tuple_index(G: FiniteGroup, T) -> int:
    n = G.order
    idx = 0
    for g in T:
        idx = idx * n + g
    return idx


def cochain_map(M: CoeffModule, chains, nbasis: int) -> IntMatrix:
    """Matrix of f |-> (f(chain) for chain in chains), one row block of
    rank(M) rows per chain, with entries reduced mod the modulus of M.

    f is a cochain on a free Z[G]-module with basis 0..nbasis-1, in the flat
    layout (basis index, then coordinate in M).  A chain is a list of terms
    (b, g, c) standing for c * g.[b], and f(c * g.[b]) = c * g.f([b]).
    """
    k, mod = M.rank, M.modulus
    action = [m.nonzeros for m in M.action]
    rows = []
    for chain in chains:
        block = [{} for _ in range(k)]
        for b, g, c in chain:
            base = b * k
            for row, entries in zip(block, action[g]):
                for j, x in entries.items():
                    _add_entry(row, base + j, c * x, mod)
        rows.extend(block)
    return IntMatrix(tuple(rows), len(rows), nbasis * k)


def _cohomology_of(delta, n: int, modulus) -> Subquotient:
    """ker delta(n) / im delta(n - 1), with delta(-1) = 0."""
    d_out = delta(n)
    d_in = delta(n - 1) if n else IntMatrix.zero(d_out.cols, 0)
    return Subquotient(d_out, d_in, modulus=modulus)


def bar_delta_matrix(G: FiniteGroup, M: CoeffModule, p: int) -> IntMatrix:
    """Matrix of the inhomogeneous cochain differential C^p -> C^{p+1}: f
    evaluated on the bar faces of each (p+1)-tuple."""
    bar = BarResolution(G)
    faces = (
        [(_tuple_index(G, face), g0, c) for (face, g0), c in bar.boundary_of_basis(T).items()]
        for T in bar.basis(p + 1)
    )
    return cochain_map(M, faces, G.order**p)


def bar_cohomology(G: FiniteGroup, M: CoeffModule, n: int) -> Subquotient:
    """H^n(G, M) on the bar complex, |G|^n * rank(M) coordinates: the
    reference the engine on F is compared with."""
    return _cohomology_of(partial(bar_delta_matrix, G, M), n, M.modulus)


# ---------------------------------------------------------------------------
# chain maps, lifted through a contracting homotopy
# ---------------------------------------------------------------------------


def chain_lift(boundary, homotopy, act, unit):
    """The chain map f from a free resolution to one with a contracting
    homotopy that lifts the identity of Z (Brown, Cohomology of Groups, I.7):
    f_0(b) = unit and f_p(b) = homotopy(p, f_{p-1}(d b)), memoised per (p, b).

    `boundary(p, b)` is d b for a basis element b of degree p, a chain of
    terms (b2, g, c) standing for c * g.b2, and `act(g, x)` is g . x on the
    target, so f_{p-1}(d b) = sum c * act(g, f_{p-1}(b2)).
    """

    @lru_cache(maxsize=None)
    def f(p, b):
        if p == 0:
            return unit
        out: dict = {}
        for b2, g, c in boundary(p, b):
            _axpy(act(g, f(p - 1, b2)), out, c, None)
        return homotopy(p, out)

    return f


# ---------------------------------------------------------------------------
# a free resolution of small rank for any finite group
# ---------------------------------------------------------------------------


def _grow_span(rows: dict, v: dict) -> bool:
    """Add v, a vector {index: nonzero}, to the Z-span of `rows`, an
    echelon basis {pivot index: row} with positive pivots, and say whether
    the span grew.  v is consumed.  A clash of pivots runs Euclid's
    algorithm on the two rows, so the span grows exactly when a pivot is
    added or shrinks; when v was in the span, `rows` is left as it was."""
    grew = False
    while v:
        j = min(v)
        row = rows.get(j)
        if row is None:
            rows[j] = v if v[j] > 0 else {i: -a for i, a in v.items()}
            return True
        _axpy(row, v, -(v[j] // row[j]), None)
        if j in v:  # a remainder in (0, row[j]) becomes the pivot
            rows[j], v, grew = v, row, True
    return grew


class SmallResolution:
    """A free Z[G]-resolution F of Z of small rank, for any finite group,
    built by linear algebra over Z (G. Ellis, "Computing group
    resolutions", J. Symbolic Comput. 38, 2004).  F_p is built when a degree
    first asks for it.

    A cyclic G = <t> has its terms given: the periodic resolution
    ... -N-> Z[G] -(t-1)-> Z[G] -> Z, one basis element in every degree,
    with d_p = t - 1 for p odd (0 for the trivial group) and the norm N for
    p even >= 2.  For any other group F_0 = Z[G] and F_1 is free on
    G.generators with d(e_s) = s - 1.  For p >= 2 the generators of F_p are
    picked from the Z-basis of ker d_{p-1} that the Smith form of d_{p-1}
    gives (the basis `kernel_basis` returns), in its order: a vector is
    kept when it enlarges the Z-span of the G-translates of those kept
    before, that is when it raises the rank of the span or lowers its
    index.  The picking stops at full rank and index 1 in the kernel, which
    is the exactness of F at F_{p-1}; on a Z-basis of the kernel one pass
    gets there, since every basis vector ends in the span.  If the span
    never gets there, ValidationError is raised; `check_exact` runs the same
    picking on the generators a term has, given terms included.

    An element of F_p is a dict {(b, g): c} standing for the sum of the
    c * g.e_b; in Z-coordinates g.e_b sits at index b * |G| + g.  The
    contracting homotopy is Z-linear, with d h + h d = 1 - eta eps: on
    x = g.e_b in degree p - 1 it is the solution y of d_p y = x - h(d x)
    (of d_1 y = g - 1 in degree 0) found on the Smith form of d_p.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        t = G.generator_if_cyclic()
        if t is None:
            self._periodic = None
            d_1 = [[(0, s, 1), (0, 0, -1)] for s in G.generators]
        else:  # d_p(e_0) by the parity of p: the norm, then t - 1
            self._periodic = ([[(0, g, 1) for g in G.elements()]],
                              [[(0, t, 1), (0, 0, -1)] if t else []])
            d_1 = self._periodic[1]
        # _d[p][b] = d_p(e_b) as terms (b2, g, c) standing for c * g.e_b2;
        # d_0 = 0, as on the bar resolution
        self._d = [[[]], d_1]
        self._matrix: dict = {}
        self._snf: dict = {}
        self._h: dict = {}

    def rank(self, p: int) -> int:
        return len(self._boundaries(p))

    def boundary(self, p: int, b: int) -> list:
        return self._boundaries(p)[b]

    def _boundaries(self, p: int) -> list:
        while len(self._d) <= p:
            q = len(self._d) - 1  # the next term is generated by ker d_q
            if self._periodic:
                self._d.append(self._periodic[(q + 1) % 2])
            else:  # picked from the Z-basis of ker d_q: V's columns at d_j = 0
                e = self._smith(q)
                self._d.append(self._spanning(q, _kernel_columns(e.diagonal(), e.V_cols, None)))
        return self._d[p]

    def matrix(self, p: int) -> IntMatrix:
        """d_p (p >= 1) on Z-coordinates, |G| rank(p-1) x |G| rank(p)."""
        if p not in self._matrix:
            n, mul = self.group.order, self.group.table
            rows: list = [{} for _ in range(n * self.rank(p - 1))]
            for b, chain in enumerate(self._boundaries(p)):
                for h in range(n):  # d(h.e_b) = h.d(e_b)
                    for b2, g, c in chain:
                        _add_entry(rows[b2 * n + mul[h][g]], b * n + h, c, None)
            self._matrix[p] = IntMatrix(tuple(rows), len(rows), n * self.rank(p))
        return self._matrix[p]

    def _smith(self, p: int):
        """d_p reduced to Smith form, with the transforms read: U and V for
        the homotopy's solve, V and V^-1 for the kernel."""
        if p not in self._snf:
            self._snf[p] = _smith_reduce(self.matrix(p), None, {"U", "V", "V_inv"})
        return self._snf[p]

    def _spanning(self, p: int, vectors) -> list:
        """The chains d_{p+1}(e_b) of the vectors picked, in order, to span
        ker d_p with their G-translates; raises ValidationError if they never
        do."""
        n, mul = self.group.order, self.group.table
        e = self._smith(p)
        # kernel coordinates x |-> (V^-1 x)_j for the j at zero diagonal
        # entries, which over Z come last; by columns
        r = sum(1 for x in e.diagonal() if x)
        k = len(e.V_inv) - r
        coord_cols = _columns_to_rows(e.V_inv[r:], len(e.V_inv))

        def full(span):  # rank and index of the span in Z^k
            return len(span) == k and all(row[j] == 1 for j, row in span.items())

        def coords(v, g):  # of the translate g.v
            out: dict = {}
            for i, c in v.items():
                b, h = divmod(i, n)
                _axpy(coord_cols[b * n + mul[g][h]], out, c, None)
            return out

        span: dict = {}
        taken = []
        for v in vectors:
            if full(span):
                break
            if not _grow_span(span, coords(v, 0)):
                continue  # v is spanned already
            taken.append([(i // n, i % n, c) for i, c in sorted(v.items())])
            for g in range(1, n):
                _grow_span(span, coords(v, g))
        if not full(span):
            raise ValidationError(
                f"resolution is not exact at F_{p}: the translates span rank "
                f"{len(span)} of {k}, with pivots {sorted(span[j][j] for j in span)}"
            )
        return taken

    def check_exact(self, p: int) -> None:
        """Raise ValidationError unless the translates of the d_{p+1}(e_b) lie
        in ker d_p and span it."""
        if not self.matrix(p).mul(self.matrix(p + 1)).is_zero():
            raise ValidationError(f"d_{p} d_{p + 1} != 0")
        n = self.group.order
        self._spanning(p, [{b * n + g: c for b, g, c in chain} for chain in self._boundaries(p + 1)])

    def homotopy(self, p: int, elem: dict) -> dict:
        """h: F_{p-1} -> F_p, Z-linear, with d h + h d = 1 - eta eps."""
        out: dict = {}
        for (b, g), c in elem.items():
            _axpy(self._homotopy_of_basis(p, b, g), out, c, None)
        return out

    def _homotopy_of_basis(self, p: int, b: int, g: int) -> dict:
        key = (p, b, g)
        if key not in self._h:
            n, mul = self.group.order, self.group.table
            want = {(b, g): 1}  # x - h(d x) for x = g.e_b; g - 1 in degree 0
            if p == 1:
                _add_entry(want, (0, 0), -1, None)
            else:
                dx: dict = {}
                for b2, g2, c in self.boundary(p - 1, b):
                    _add_entry(dx, (b2, mul[g][g2]), c, None)
                _axpy(self.homotopy(p - 1, dx), want, -1, None)
            vec = [0] * (n * self.rank(p - 1))
            for (b2, g2), c in want.items():
                vec[b2 * n + g2] = c
            y = self._smith(p).solve(vec)
            if y is None:
                raise DisagreementError(
                    f"d_{p} y = x - h(d x) has no solution at {g}.e_{b}"
                )
            self._h[key] = {divmod(i, n): c for i, c in enumerate(y) if c}
        return self._h[key]


@lru_cache(maxsize=CACHE_SIZE)
def free_resolution(G: FiniteGroup) -> SmallResolution:
    """The resolution F that G's engines and its twisted resolutions are
    built on, one per group, read through rank(p), boundary(p, b) and
    homotopy(p, x)."""
    return SmallResolution(G)


# ---------------------------------------------------------------------------
# the cohomology engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def coboundary(G: FiniteGroup, M: CoeffModule, p: int) -> IntMatrix:
    """The coboundary C^p -> C^{p+1} of Hom_G(F, M), F = free_resolution(G):
    f |-> f(d e_b), e_b a basis element of F_{p+1}.  Memoised: the engines
    of degrees p and p + 1 read it, and so does the pushforward check of
    spectral, which perturbs the universal cocycle by it."""
    res = free_resolution(G)
    return cochain_map(M, [res.boundary(p + 1, b) for b in range(res.rank(p + 1))], res.rank(p))


@dataclass
class CohomologyClass:
    degree: int
    module: CoeffModule
    cochain: tuple  # a cocycle on F_n: f(e_b) for each b, then the coordinate
    coords: tuple
    engine: "GroupCohomology"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class GroupCohomology:
    """H^n(G, M) on Hom_G(F_n, M) for F = free_resolution(G), with
    class-of-cocycle and representative maps."""

    def __init__(self, G: FiniteGroup, M: CoeffModule, degree: int):
        if degree < 0 or degree > MAX_DEGREE:
            raise ValidationError(f"degree must be in 0..{MAX_DEGREE}")
        if M.group != G:
            raise ValidationError("module is not over the given group")
        self.G = G
        self.M = M
        self.degree = degree
        # in degree 0, d^0 reads F_1 only: one block s - 1 per generator s,
        # not one block g - 1 per element as on bar
        self.res = free_resolution(G)
        self.sub = _cohomology_of(partial(coboundary, G, M), degree, M.modulus)
        self.group = self.sub.group

    def coords_of(self, cochain):
        """The coordinates of the class of a cocycle on F_n."""
        return self.sub.project(self.M.reduce(cochain))

    def classify(self, cochain) -> CohomologyClass:
        return CohomologyClass(
            self.degree, self.M, tuple(cochain), self.coords_of(cochain), self
        )

    def class_from_coords(self, coords) -> CohomologyClass:
        coords = self.sub.coords_mod(coords)
        return CohomologyClass(
            self.degree, self.M, tuple(self.sub.lift(coords)), coords, self
        )

    def generator_classes(self):
        out = []
        ngen = len(self.group.generators)
        for i in range(ngen):
            coords = tuple(1 if j == i else 0 for j in range(ngen))
            out.append(self.class_from_coords(coords))
        return out


@lru_cache(maxsize=CACHE_SIZE)
def cohomology(G: FiniteGroup, M: CoeffModule, degree: int) -> GroupCohomology:
    return GroupCohomology(G, M, degree)


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
class _SubgroupMaps:
    """The chain maps over Z[H] between the resolutions of G and of a
    subgroup H, each lifted through the homotopy of its target.

    `phi(p, b)` is the image of e_b of F_H in F_G, where h acts by
    embed(h).  `theta(p, (b, r))` is the image in F_H of r.e_b of F_G: F_G
    is free over Z[H] on these, r running over `reps`, the right coset reps
    of H."""

    def __init__(self, sub: Subgroup):
        G, H = sub.ambient, sub.group
        FG, FH = free_resolution(G), free_resolution(H)
        # split[g] = (h, r) with g = embed(h) * r, r the first element of H*g
        self.reps, split = [], {}
        for r in G.elements():
            if r not in split:
                self.reps.append(r)
                for h, e in enumerate(sub.embed):
                    split[G.mul(e, r)] = (h, r)

        def left_mul(row, x):  # one-to-one on the keys
            return {(b, row[g]): c for (b, g), c in x.items()}

        def boundary(p, br):  # r.d(e_b) = sum c * (r g).e_b2, r g = embed(h) * r2
            b, r = br
            out = []
            for b2, g, c in FG.boundary(p, b):
                h, r2 = split[G.mul(r, g)]
                out.append(((b2, r2), h, c))
            return out

        self.phi = chain_lift(FH.boundary, FG.homotopy,
                              lambda h, x: left_mul(G.table[sub.embed[h]], x), {(0, 0): 1})
        self.theta = chain_lift(boundary, FH.homotopy, lambda h, x: left_mul(H.table[h], x),
                                {(0, 0): 1})


def restriction(cls: CohomologyClass, sub: Subgroup) -> CohomologyClass:
    """Restriction of a class to a subgroup, as a class over that subgroup:
    the cocycle f o phi."""
    if sub.ambient != cls.engine.G:
        raise ValidationError("subgroup of a different group")
    n, phi = cls.degree, _SubgroupMaps(sub).phi
    eng = cohomology(sub.group, cls.module.restrict(sub), n)
    # the terms of phi carry elements of G, so the map acts through M
    chains = ([(b2, g, c) for (b2, g), c in phi(n, b).items()] for b in range(eng.res.rank(n)))
    cochain = cochain_map(cls.module, chains, cls.engine.res.rank(n)).apply(
        cls.cochain, cls.module.modulus)
    return eng.classify(cochain)


def corestriction(sub: Subgroup, module: CoeffModule, cls: CohomologyClass) -> CohomologyClass:
    """Transfer H^n(H, M) -> H^n(G, M); `module` is M as a G-module and `cls`
    lives over sub.group with coefficients module.restrict(sub)."""
    if cls.module != module.restrict(sub):
        raise ValidationError("class coefficients do not match the ambient module")
    maps, G, n = _SubgroupMaps(sub), sub.ambient, cls.degree
    eng = cohomology(G, module, n)

    # sum over the right coset reps r of r^-1 * theta(r.e_b): the r^-1 are
    # left coset reps of H, and the sum does not depend on their choice
    def chain(b):
        return [(b2, G.mul(G.inv(r), sub.embed[h]), c)
                for r in maps.reps
                for (b2, h), c in maps.theta(n, (b, r)).items()]

    chains = (chain(b) for b in range(eng.res.rank(n)))
    cochain = cochain_map(module, chains, cls.engine.res.rank(n)).apply(cls.cochain, module.modulus)
    return eng.classify(cochain)
