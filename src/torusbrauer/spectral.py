"""Split extensions Z^r x| pi: lattice cohomology, a bigraded free resolution
with twisting differentials, the second-page differential d2 on bidegree
(0,2), and the universal degree-two class attached to the lattice.

The resolution is a twisted tensor product of the Koszul resolution of Z^r
with the free resolution F of pi that pi's cohomology engines use
(`cohomology.free_resolution`; C. T. C. Wall, "Resolutions for extensions of
groups", 1961).  The vertical differential d0 is Koszul, d1 is prescribed on
the bottom row (the boundary of F) and lifted upward through the Koszul
contracting homotopy, and every higher d_k is solved inductively from the
d^2 = 0 constraint via the same homotopy.  Coefficients are modules with
trivial Z^r-action, so all vertical cochain differentials vanish and the
second page appears directly on the rows of the cochain bicomplex, whose
row q = 1 is the complex Hom_pi(F, Hom(N, M)) of the E2^{2,1} engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .cohomology import (CACHE_SIZE, GroupCohomology, coboundary, cochain_map, cohomology,
                         free_resolution)
from .errors import (
    HomotopySolveFailureError,
    NotInvariantError,
    ValidationError,
)
from .groups import (
    CoeffModule,
    FiniteGroup,
    c2_decompose,
    canonical_involution,
    involution_lattice,
    tate_twist,
)
from .intlat import FinAbGroup, IntMatrix, Subquotient, _add_entry, _axpy, _det

MAX_TOTAL_DEGREE = 4


def _subsets(r: int, q: int):
    return list(itertools.combinations(range(r), q))


def exterior_power_matrix(A: IntMatrix, q: int) -> IntMatrix:
    """Matrix of Lambda^q(A) on the wedge bases e_S, S a sorted q-subset, for
    any map A, rectangular included: row S_row (a q-subset of A.rows) and
    column S_col (a q-subset of A.cols) hold the minor A[S_row, S_col]."""
    a = A.entries
    cols = _subsets(A.cols, q)
    return IntMatrix.from_rows(
        [[_det([[a[i][j] for j in S_col] for i in S_row]) for S_col in cols]
         for S_row in _subsets(A.rows, q)],
        ncols=len(cols),
    )


# ---------------------------------------------------------------------------
# coefficient modules attached to the lattice
# ---------------------------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def exterior_power(N: CoeffModule, q: int) -> CoeffModule:
    """Lambda^q N with the induced (covariant) action on the wedge basis
    e_S, S a sorted q-subset.  Memoised: it depends on the lattice and q
    alone, and every coefficient module of the lattice reads it."""
    if N.modulus is not None:
        raise ValidationError("a lattice has no modulus")
    mats = tuple(exterior_power_matrix(m, q) for m in N.action)
    return CoeffModule(N.group, comb(N.rank, q), None, mats)


@lru_cache(maxsize=CACHE_SIZE)
def lattice_cohomology(N: CoeffModule, M: CoeffModule, q: int) -> CoeffModule:
    """Hom(Lambda^q N, M) with pi acting by (g.f)(x) = g_M f(rho(g)^{-1} x).

    This is the degree-q cohomology of the lattice with coefficients in a
    module the lattice acts on trivially.  Coordinates are flattened as
    index = S_index * rank(M) + M-coordinate.
    """
    if N.group != M.group:
        raise ValidationError("lattice and module live over different groups")
    pi = N.group
    lam = exterior_power(N, q)
    action = [lam.action[pi.inv(g)].transpose().kron(M.action[g]) for g in pi.elements()]
    return CoeffModule.make(pi, lam.rank * M.rank, M.modulus, action)


# ---------------------------------------------------------------------------
# the extension and its group ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitExtensionSpec:
    """Z^r x| pi acting on a coefficient module with trivial Z^r-action:
    pi is the group of the lattice N, which has no modulus."""

    N: CoeffModule
    M: CoeffModule

    def __post_init__(self):
        if self.N.modulus is not None:
            raise ValidationError("the lattice of a split extension has no modulus")
        if self.N.group != self.M.group:
            raise ValidationError("lattice and module live over different groups")

    @property
    def pi(self) -> FiniteGroup:
        return self.N.group


# ---------------------------------------------------------------------------
# the resolution
# ---------------------------------------------------------------------------
# Elements of W_{p,q} are dicts {(a, u, B, S): coeff}: the group ring element
# x^a u times the free basis element indexed by B = (p, b), the basis element
# e_b of F_p, and the sorted q-subset S.


class TwistedResolution:
    """The resolution up to total degree MAX_TOTAL_DEGREE.  It is built from
    the lattice alone: the coefficient module enters only through cochains."""

    def __init__(self, N: CoeffModule):
        if N.modulus is not None:
            raise ValidationError("a lattice has no modulus")
        self.pi = N.group
        self.N = N
        self.r = N.rank
        self.F = free_resolution(self.pi)
        self._d_cache: dict = {}

    # -- basis bookkeeping -------------------------------------------------
    def basis(self, p: int, q: int):
        if p < 0 or q < 0 or q > self.r:
            return []
        subs = _subsets(self.r, q)
        return [((p, b), S) for b in range(self.F.rank(p)) for S in subs]

    def rank(self, p: int, q: int) -> int:
        if p < 0 or q < 0 or q > self.r:
            return 0
        return self.F.rank(p) * comb(self.r, q)

    # -- group ring helpers ------------------------------------------------
    def _left_mul(self, a, u, elem: dict) -> dict:
        pi, ru = self.pi, self.N.action[u]
        # x^a u is a unit of the group ring (ru is invertible), so no two terms meet
        return {
            (tuple(ai + bi for ai, bi in zip(a, ru.apply(b))), pi.mul(u, v), B, S): c
            for (b, v, B, S), c in elem.items()
        }

    # -- the vertical (Koszul) differential and its contracting homotopy ---
    def d0_basis(self, B, S) -> dict:
        p, q = B[0], len(S)
        if q == 0:
            return {}
        sign_p = -1 if p % 2 else 1
        zero = (0,) * self.r
        out: dict = {}
        for j, i in enumerate(S):
            rest = S[:j] + S[j + 1 :]
            s = sign_p * (-1 if j % 2 else 1)
            expo = tuple(1 if t == i else 0 for t in range(self.r))
            # each j drops its own element of S, and expo is not zero: no key repeats
            out[(expo, 0, B, rest)] = s
            out[(zero, 0, B, rest)] = -s
        return out

    def homotopy(self, elem: dict) -> dict:
        """Contracting homotopy of the Koszul direction, coset by coset:
        h(u * x^c e_S) = u * sum_{i < min S} geom(c_i) x^{c zeroed <= i} e_{S+i},
        with the same (-1)^p sign twist carried by d0 in column p."""
        pi = self.pi
        out: dict = {}
        for (a, u, B, S), coeff in elem.items():
            sign_p = -1 if B[0] % 2 else 1
            c = self.N.action[pi.inv(u)].apply(a)
            ru = self.N.action[u]
            stop = S[0] if S else self.r
            for i in range(stop):
                ci = c[i]
                if ci == 0:
                    continue
                S2 = (i,) + S
                if ci > 0:
                    span, s_sign = range(ci), 1
                else:
                    span, s_sign = range(ci, 0), -1
                for s in span:
                    cc = tuple(
                        (s if t == i else (c[t] if t > i else 0))
                        for t in range(self.r)
                    )
                    _add_entry(out, (tuple(ru.apply(cc)), u, B, S2), sign_p * s_sign * coeff, None)
        return out

    # -- twisting differentials -------------------------------------------
    def d_basis(self, k: int, B, S) -> dict:
        (p, b), q = B, len(S)
        if k == 0:
            return self.d0_basis(B, S)
        if p - k < 0 or q + k - 1 > self.r:
            return {}
        key = (k, B, S)
        cached = self._d_cache.get(key)
        if cached is not None:
            return cached
        if k == 1 and q == 0:
            # the bottom row is F, whose chains hold each (b2, g) once
            zero = (0,) * self.r
            res = {(zero, g, (p - 1, b2), ()): c for b2, g, c in self.F.boundary(p, b)}
            self._d_cache[key] = res
            return res
        # solved inductively: d0 d_k(b) = -sum_{i+j=k, i,j>=1} d_i d_j(b) - d_k(d0 b)
        rhs: dict = {}
        for i in range(1, k):
            _axpy(self.d_elem(i, self.d_basis(k - i, B, S)), rhs, -1, None)
        _axpy(self.d_elem(k, self.d0_basis(B, S)), rhs, -1, None)
        res = self.homotopy(rhs)
        self._d_cache[key] = res
        return res

    def d_elem(self, k: int, elem: dict) -> dict:
        out: dict = {}
        for (a, u, B, S), c in elem.items():
            _axpy(self._left_mul(a, u, self.d_basis(k, B, S)), out, c, None)
        return out

    def total_d(self, elem: dict) -> dict:
        out: dict = {}
        for k in range(0, MAX_TOTAL_DEGREE + 1):
            _axpy(self.d_elem(k, elem), out, 1, None)
        return out

    def verify_d_squared(self, max_total: int | None = None):
        """Exhaustively check that the total differential squares to zero on
        every basis element up to the given total degree."""
        top = MAX_TOTAL_DEGREE if max_total is None else max_total
        for p in range(top + 1):
            for q in range(min(self.r, top - p) + 1):
                for B, S in self.basis(p, q):
                    one = {((0,) * self.r, 0, B, S): 1}
                    if self.total_d(self.total_d(one)):
                        raise HomotopySolveFailureError(
                            f"d^2 != 0 on basis element at bidegree {(p, q)}"
                        )
        return True

    def verify_homotopy_identity(self, samples):
        """d0 h + h d0 = id - (unit)(augmentation) on sample elements."""
        for elem, (p, q) in samples:
            lhs: dict = {}
            _axpy(self.d_elem(0, self.homotopy(elem)), lhs, 1, None)
            _axpy(self.homotopy(self.d_elem(0, elem)), lhs, 1, None)
            want: dict = {}
            _axpy(elem, want, 1, None)
            if q == 0:
                # subtract eta(eps(x)): exponent vector reset to zero
                for (a, u, B, S), c in elem.items():
                    _add_entry(want, ((0,) * self.r, u, B, S), -c, None)
            if lhs != want:
                raise HomotopySolveFailureError("contracting homotopy identity fails")
        return True


@lru_cache(maxsize=CACHE_SIZE)
def twisted_resolution(N: CoeffModule) -> TwistedResolution:
    return TwistedResolution(N)


# ---------------------------------------------------------------------------
# cochains with coefficients acted on trivially by the lattice
# ---------------------------------------------------------------------------
# A cochain at bidegree (p,q) is a vector over the basis (b, S, j) with
# index = (b * #subsets + S_index) * rank(M) + j, e_b the basis of F_p.


class CochainComplex:
    def __init__(self, ext: SplitExtensionSpec, res: TwistedResolution):
        self.res = res
        self.M = ext.M
        self.r = ext.N.rank

    def delta_matrix(self, k: int, p: int, q: int) -> IntMatrix:
        """Matrix of f |-> f . d_k from bidegree (p,q) into (p+k, q-k+1),
        with entries reduced mod the modulus of M."""
        return self._matrix((k,), [(p + k, q - k + 1)], {(p, q): 0})

    def _matrix(self, ks, targets, offsets) -> IntMatrix:
        """Matrix of f |-> f . (sum of the d_k, k in ks) into the bidegrees
        `targets`, from the bidegrees in `offsets` (one per q), each at its
        basis index offset in the source layout."""
        res = self.res
        # ((p, b), S) sits at place[S][0] + b * place[S][1]
        place = {S: (off + i, comb(self.r, q)) for (_, q), off in offsets.items()
                 for i, S in enumerate(_subsets(self.r, q))}
        chains = (
            [(o + b2 * w, u, c)
             for k in ks
             for (_, u, (_, b2), S2), c in res.d_basis(k, B, S).items()
             for o, w in (place[S2],)]
            for pt, qt in targets
            for B, S in res.basis(pt, qt)
        )
        return cochain_map(self.M, chains, sum(res.rank(*b) for b in offsets))


# ---------------------------------------------------------------------------
# the second page at (2,1) and the differential from (0,2)
# ---------------------------------------------------------------------------


def e2_21(ext: SplitExtensionSpec) -> GroupCohomology:
    """The second-page entry at bidegree (2,1), as a cohomology engine.

    Because the coefficients carry no lattice action, the vertical cochain
    differentials vanish identically, and the row C^{1,1} -> C^{2,1} ->
    C^{3,1} is Hom_pi(F, Hom(N, M)) for the resolution F of pi that the
    twisted resolution is built on: the entry is the degree-2 cohomology of
    pi with coefficients in Hom(N, M), and this engine works on the same F.
    A row cochain at (p,1) and a cochain on F_p share one flattening, so row
    cocycles are classified by `coords_of` as they are, and the row
    differential out of (p,1) is the engine's `coboundary(pi, Hom(N, M), p)`.
    """
    return cohomology(ext.pi, lattice_cohomology(ext.N, ext.M, 1), 2)


def _check_invariant(mod: CoeffModule, vec):
    vec = tuple(mod.reduce(vec))
    for g in mod.group.generators:  # enough: see FiniteGroup
        if tuple(mod.act(g, vec)) != vec:
            raise NotInvariantError("class is not fixed by the group action")
    return vec


def uct_identify(ext: SplitExtensionSpec, alpha) -> IntMatrix:
    """The alternating-form avatar of an invariant degree-2 lattice class:
    a matrix Lambda^2 N -> M, column S |-> alpha evaluated on e_S."""
    lat2 = lattice_cohomology(ext.N, ext.M, 2)
    alpha = _check_invariant(lat2, alpha)
    k = ext.M.rank
    nsub = comb(ext.N.rank, 2)
    rows = [[alpha[s * k + j] for s in range(nsub)] for j in range(k)]
    return IntMatrix.from_rows(rows, ncols=nsub)


def d2_cocycles(ext: SplitExtensionSpec, alphas) -> tuple:
    """The (2,1)-cochains f . d_2 obtained by pushing each invariant
    (0,2)-cochain alpha through the twisting differential d_2; each is a row
    cocycle.  The matrix of d_2 is built once for all of them, and not at
    all when there are none."""
    lat2 = lattice_cohomology(ext.N, ext.M, 2)
    alphas = [_check_invariant(lat2, alpha) for alpha in alphas]
    if not alphas:
        return ()
    d2 = CochainComplex(ext, twisted_resolution(ext.N)).delta_matrix(2, 0, 2)
    return tuple(d2.apply(alpha, ext.M.modulus) for alpha in alphas)


@dataclass
class D2Report:
    source: FinAbGroup  # invariants of Hom(Lambda^2 N, M)
    target: FinAbGroup  # H^2(pi, Hom(N, M))
    matrix: IntMatrix  # target coordinates of d2 on each source generator

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def d2_source(ext: SplitExtensionSpec) -> FinAbGroup:
    """The source of d2 out of (0,2): the invariant degree-2 lattice classes,
    H^0(pi, Hom(Lambda^2 N, M)), with their generators."""
    return cohomology(ext.pi, lattice_cohomology(ext.N, ext.M, 2), 0).group


def d2_02(ext: SplitExtensionSpec) -> D2Report:
    """The second-page differential from invariant degree-2 lattice classes
    to degree-2 classes of pi with coefficients in Hom(N, M), as a matrix on
    the generators of the source."""
    inv = d2_source(ext)
    e21 = e2_21(ext)
    cols = [list(e21.coords_of(c)) for c in d2_cocycles(ext, inv.generators)]
    mat = IntMatrix.from_columns(cols, nrows=len(e21.group.generators))
    return D2Report(inv, e21.group, mat)


# ---------------------------------------------------------------------------
# the universal class of the lattice
# ---------------------------------------------------------------------------


@dataclass
class V2Class:
    """Degree-2 class of pi with coefficients Hom(N, Lambda^2 N), given by an
    explicit row cocycle; coordinates are computed on demand."""

    ext_univ: SplitExtensionSpec  # its lattice is the N of the class
    cocycle: tuple

    _coords: tuple | None = field(default=None, repr=False)

    def coords(self):
        if self._coords is None:
            self._coords = e2_21(self.ext_univ).coords_of(self.cocycle)
        return self._coords

    def is_zero(self) -> bool:
        return not any(self.coords())


@lru_cache(maxsize=CACHE_SIZE)
def v2(N: CoeffModule) -> V2Class:
    """d2 of the identity, with the universal coefficient module Lambda^2 N.
    Memoised: every level and command on one lattice reads one class."""
    ext = SplitExtensionSpec(N, exterior_power(N, 2))
    nsub = ext.M.rank
    # the identity element of Hom(Lambda^2 N, Lambda^2 N), flattened
    alpha = [0] * (nsub * nsub)
    for s in range(nsub):
        alpha[s * nsub + s] = 1
    return V2Class(ext, d2_cocycles(ext, [alpha])[0])


def pushforward_cocycle(ext: SplitExtensionSpec, atilde: IntMatrix, src):
    """Image of a Hom(N, Lambda^2 N)-valued row cocycle under post-composition
    with the map Lambda^2 N -> M given by atilde, as a cocycle for ext."""
    # one value in Lambda^2 N per basis element of F_2 and basis vector of N
    post = IntMatrix.identity(free_resolution(ext.pi).rank(2) * ext.N.rank).kron(atilde)
    return tuple(ext.M.reduce(post.apply(src)))


def pushforward_formula_check(ext: SplitExtensionSpec, alphas, rng) -> list[bool]:
    """For each invariant alpha, in order: d2 of alpha equals the pushforward
    of the universal class along the alternating-form avatar of alpha.

    To keep the two sides on genuinely different representatives, the
    universal cocycle is first shifted by a random coboundary, drawn afresh
    for each alpha, before being pushed forward: a random 1-cochain under
    the coboundary of Hom_pi(F, Hom(N, Lambda^2 N)), which the E2^{2,1}
    engine of the universal class reads too.  When Lambda^2 N = 0 that
    matrix is empty and nothing is drawn.  The difference of the two sides
    is judged by its coordinates in E2^{2,1}, from the engine d2 builds.
    """
    vcl = v2(ext.N)
    d_univ = coboundary(ext.pi, lattice_cohomology(ext.N, vcl.ext_univ.M, 1), 1)
    verdicts = []
    for alpha, lhs_vec in zip(alphas, d2_cocycles(ext, alphas)):
        pert = tuple(rng.randrange(-3, 4) for _ in range(d_univ.cols))
        cocycle = tuple(a + b for a, b in zip(vcl.cocycle, d_univ.apply(pert)))
        rhs_vec = pushforward_cocycle(ext, uct_identify(ext, alpha), cocycle)
        diff = tuple(a - b for a, b in zip(lhs_vec, rhs_vec))
        verdicts.append(not any(e2_21(ext).coords_of(diff)))
    return verdicts


def v2_additivity_check(N1: CoeffModule, N2: CoeffModule) -> bool:
    """The universal class of a direct sum agrees, as a class, with the sum of
    the universal classes of the summands placed in the diagonal blocks of
    Hom(N1 + N2, Lambda^2 (N1 + N2))."""
    big = N1.direct_sum(N2)
    vbig = v2(big)
    expected, shift = [0] * len(vbig.cocycle), 0
    for N in (N1, N2):
        # J is the coordinate inclusion of N; a value in Hom(N, Lambda^2 N)
        # moves by J on N and by Lambda^2 J on Lambda^2 N
        J = IntMatrix.from_rows(
            [[int(i == j + shift) for j in range(N.rank)] for i in range(big.rank)], ncols=N.rank
        )
        move = IntMatrix.identity(free_resolution(N.group).rank(2)).kron(
            J.kron(exterior_power_matrix(J, 2)))
        expected = [a + b for a, b in zip(expected, move.apply(v2(N).cocycle))]
        shift += N.rank
    diff = tuple(a - b for a, b in zip(vbig.cocycle, expected))
    return not any(e2_21(vbig.ext_univ).coords_of(diff))


# ---------------------------------------------------------------------------
# cohomology of the total complex (degenerate-case cross checks)
# ---------------------------------------------------------------------------


def total_delta_matrix(ext: SplitExtensionSpec, n: int) -> IntMatrix:
    """The total differential out of degree n: the sum of the d_k, k >= 1
    (the vertical cochain differentials vanish), with the bidegrees of each
    total degree placed one after another."""
    res = twisted_resolution(ext.N)
    r = ext.N.rank

    def spots(m):
        return [(p, m - p) for p in range(m + 1) if 0 <= m - p <= r]

    offsets, acc = {}, 0
    for s in spots(n):
        offsets[s] = acc
        acc += res.rank(*s)
    return CochainComplex(ext, res)._matrix(range(1, n + 2), spots(n + 1), offsets)


def total_cohomology(ext: SplitExtensionSpec, n: int) -> FinAbGroup:
    """H^n of the whole split extension, from the assembled total complex."""
    if n + 1 > MAX_TOTAL_DEGREE:
        raise ValidationError("total degree out of range for the resolution")
    d_out = total_delta_matrix(ext, n)
    if n >= 1:
        d_in = total_delta_matrix(ext, n - 1)
    else:
        d_in = IntMatrix.zero(d_out.cols, 0)
    return Subquotient(d_out, d_in, modulus=ext.M.modulus).group


# ---------------------------------------------------------------------------
# the real-torus surjectivity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealTorusLevel:
    n: int
    invariants: FinAbGroup  # H^2(N, mu_n)^{C2}
    d2_is_zero: bool


@dataclass(frozen=True)
class RealTorusReport:
    """The real-torus check of one involution at each requested level.

    Every field is basis-invariant: the (a, b, c) type, and per level the
    structure of H^2(N, mu_n)^{C2} and whether d2 vanishes on it.  The
    generators of `invariants` belong to the canonical basis of the type, not
    to the basis of the input matrix.
    """

    decomposition: tuple  # (a, b, c) type of the involution
    levels: tuple[RealTorusLevel, ...]


def real_torus_check(S: IntMatrix, moduli) -> RealTorusReport:
    """For the cocharacter involution S and each level n in `moduli`: twist
    the lattice by the sign character, take mu_n with conjugation acting by
    -1, and confirm the second-page differential out of the invariant
    degree-2 classes vanishes.

    Vanishing of d2 and the structure of its source depend only on the
    isomorphism class of the lattice, so d2 is computed on the canonical
    block form of S, which `c2_decompose` checks is conjugate to S.  On the
    input basis the Koszul homotopy emits one term per unit of exponent, so
    its cost grows with the size of the entries.  S is decomposed and checked
    on every call; the levels are read from `real_torus_levels`, which
    computes them once per type and list of levels.
    """
    dec = c2_decompose(S)
    kind = (dec.a, dec.b, dec.c)
    return RealTorusReport(kind, real_torus_levels(kind, tuple(moduli)))


@lru_cache(maxsize=CACHE_SIZE)
def real_torus_levels(kind: tuple, moduli: tuple) -> tuple[RealTorusLevel, ...]:
    """The levels of the real-torus check on the canonical involution of type
    kind = (a, b, c), one per entry of `moduli`, in order.  Memoised: they
    depend on the type and the levels alone, and one type recurs under every
    basis that disguises it."""
    N = tate_twist(involution_lattice(canonical_involution(*kind)), (1, -1))
    levels = []
    for n in moduli:
        report = d2_02(SplitExtensionSpec(N, CoeffModule.mu(N.group, n, (1, -1))))
        levels.append(RealTorusLevel(n, report.source, report.is_zero()))
    return tuple(levels)
