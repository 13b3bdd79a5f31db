"""Cohomology of finite groups with CoeffModule coefficients.

Two engines compute H^n(G, M):

* a periodic one for cyclic groups (norm / difference, instant at any rank),
* the bar cochain complex otherwise (functions on n-tuples of group
  elements, identity components included).

Classes are always carried around as bar cochains, flat vectors indexed by
`_tuple_index` and then coordinate, so restriction, transfer and
pushforward work uniformly; the periodic engine converts back and forth
through explicit chain maps between the two resolutions.

Every comparison chain map is one `chain_lift` through the contracting
homotopy of its target: sigma (periodic -> bar), tau (bar -> periodic) and
the transfer's theta (bar of G over Z[H] -> bar of H).  Every map of
cochains is built by `cochain_map` from chains, the images of the basis
elements of the target resolution: bar faces for the bar coboundaries,
d_{p+1}(1) for the periodic ones, sigma_n(1) and tau_n([T]) for the
comparison maps, embedded tuples for restriction and the terms
r^-1 * theta(r [T]) for the transfer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .errors import DegreeTooLargeError, ValidationError
from .groups import CoeffModule, FiniteGroup, Subgroup
from .intlat import IntMatrix, Subquotient, _add_entry, _axpy

MAX_DEGREE = 3

# The one bound on every memoised constructor: the cohomology engines and
# transfer data here, the lattice cohomology modules and twisted resolutions
# in spectral.  One command builds a handful of each; the bound keeps a sweep
# over many documents in one process from holding all of them.
CACHE_SIZE = 32


# ---------------------------------------------------------------------------
# bar resolution (unnormalized), with its contracting homotopy
# ---------------------------------------------------------------------------
# Elements of the degree-p term (free Z[G] on p-tuples) are dicts
# {(T, g0): coeff} standing for sums of g0*[T].  Degree -1 is Z, written
# {((), "aug"): c}; we keep it implicit and expose the augmentation instead.


class BarResolution:
    """Standard resolution of Z by free Z[G]-modules on tuples."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    def basis(self, p: int):
        return itertools.product(self.group.elements(), repeat=p)

    def boundary_of_basis(self, T, g0=0):
        """d(g0*[T]) as an element dict of degree len(T)-1: the bar faces."""
        mul, p = self.group.table, len(T)
        out = {(T[1:], mul[g0][T[0]]): 1}
        sign = 1
        for i in range(1, p + 1):
            sign = -sign
            # face i < p multiplies entries i-1 and i; face p drops the last
            face = T[: i - 1] + (mul[T[i - 1]][T[i]],) + T[i + 1 :] if i < p else T[:-1]
            _add_entry(out, (face, g0), sign, None)
        return out

    def boundary(self, element: dict) -> dict:
        out: dict = {}
        for (T, g0), c in element.items():
            _axpy(self.boundary_of_basis(T, g0), out, c, None)
        return out

    def homotopy(self, element: dict) -> dict:
        """Z-linear h(g0*[T]) = [g0|T]; satisfies dh + hd = 1 - eta*eps."""
        # (T, g0) -> (g0,) + T is one-to-one, so no two terms meet
        return {((g0,) + T, 0): c for (T, g0), c in element.items()}

    def act(self, g: int, element: dict) -> dict:
        """g . element: g multiplies the coefficient g0 of each g0*[T]."""
        mul = self.group.table[g]
        return {(T, mul[g0]): c for (T, g0), c in element.items()}

    def augmentation(self, element: dict) -> int:
        return sum(c for (T, _), c in element.items() if not T)


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


def bar_delta_matrix(G: FiniteGroup, M: CoeffModule, p: int) -> IntMatrix:
    """Matrix of the inhomogeneous cochain differential C^p -> C^{p+1}: f
    evaluated on the bar faces of each (p+1)-tuple."""
    bar = BarResolution(G)
    faces = (
        [(_tuple_index(G, face), g0, c) for (face, g0), c in bar.boundary_of_basis(T).items()]
        for T in bar.basis(p + 1)
    )
    return cochain_map(M, faces, G.order**p)


# ---------------------------------------------------------------------------
# comparison chain maps, lifted through a contracting homotopy
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
# periodic resolution for cyclic groups, with comparison chain maps
# ---------------------------------------------------------------------------


class PeriodicData:
    """... -> Z[G] -N-> Z[G] -(t-1)-> Z[G] -> Z for G cyclic with generator t.

    d_p = (t-1) for p odd, the norm for p even >= 2.  Group ring elements are
    dicts {g: coeff}.
    """

    def __init__(self, G: FiniteGroup):
        t = G.generator_if_cyclic()
        if t is None:
            raise ValidationError("periodic resolution needs a cyclic group")
        self.group = G
        self.t = t
        self.m = G.order
        # powers of t: t_power[a] = t^a and power_of[t^a] = a
        self.power_of = [0] * self.m
        self.t_power = [0] * self.m
        x = 0
        for a in range(self.m):
            self.power_of[x], self.t_power[a] = a, x
            x = G.mul(x, t)

    def d_of_one(self, p: int) -> dict:
        """d_p(1) as a group ring element."""
        if p % 2 == 1:
            # t - 1, which is zero for the trivial group (t = 0)
            return {self.t: 1, 0: -1} if self.t else {}
        return {g: 1 for g in self.group.elements()}

    def homotopy(self, target_degree: int, elem: dict) -> dict:
        """h: degree target-1 -> target with d_target h + h d_{target-1} = 1 - eta eps."""
        out: dict = {}
        if target_degree % 2 == 1:
            # geometric sums against (t-1)
            for g, c in elem.items():
                for i in range(self.power_of[g]):
                    _add_entry(out, self.t_power[i], c, None)
        else:
            # against the norm: pick out t^(m-1)
            top = self.t_power[self.m - 1]
            c = elem.get(top, 0)
            if c:
                out[0] = c
        return out


def sigma_lift(G: FiniteGroup):
    """sigma(p, 0) = sigma_p(1) in Bar_p, for the chain map Per -> Bar: the
    source has one basis element 1 in each degree, with d(1) = d_of_one(p)."""
    per, bar = PeriodicData(G), BarResolution(G)
    return chain_lift(lambda p, _: [(0, g, c) for g, c in per.d_of_one(p).items()],
                      lambda p, x: bar.homotopy(x), bar.act, {((), 0): 1})


def tau_lift(G: FiniteGroup):
    """tau(p, T) = the image of the bar basis element [T] in Per_p, for the
    chain map Bar -> Per; g acts on Z[G] by left multiplication."""
    per, bar = PeriodicData(G), BarResolution(G)
    return chain_lift(lambda p, T: [(T2, g0, c) for (T2, g0), c in bar.boundary_of_basis(T).items()],
                      per.homotopy, lambda g, x: {G.mul(g, k): c for k, c in x.items()}, {0: 1})


# ---------------------------------------------------------------------------
# the cohomology engine
# ---------------------------------------------------------------------------


@dataclass
class CohomologyClass:
    degree: int
    module: CoeffModule
    cochain: tuple  # flat bar cochain, in the layout of _tuple_index
    coords: tuple
    engine: "GroupCohomology"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class GroupCohomology:
    """H^n(G, M) with class-of-cocycle and representative maps."""

    def __init__(self, G: FiniteGroup, M: CoeffModule, degree: int, resolution="auto"):
        if degree < 0 or degree > MAX_DEGREE:
            raise DegreeTooLargeError(f"degree must be in 0..{MAX_DEGREE}")
        if M.group != G:
            raise ValidationError("module is not over the given group")
        self.G = G
        self.M = M
        self.degree = degree
        if resolution == "auto":
            resolution = (
                "periodic" if G.generator_if_cyclic() is not None else "bar"
            )
        self.resolution = resolution
        n = degree
        if resolution == "periodic":
            d_of_one = PeriodicData(G).d_of_one

            def delta(p):  # C^p -> C^{p+1}: f |-> f(d_{p+1}(1)), one basis element
                return cochain_map(M, [[(0, g, c) for g, c in d_of_one(p + 1).items()]], 1)

        elif resolution == "bar":
            delta = partial(bar_delta_matrix, G, M)
        else:
            raise ValueError("unknown resolution kind")
        d_out = delta(n)
        d_in = delta(n - 1) if n >= 1 else IntMatrix.zero(d_out.cols, 0)
        self.sub = Subquotient(d_out, d_in, modulus=M.modulus)
        self.group = self.sub.group

    # -- comparison maps of the periodic engine, each built on first use --
    @cached_property
    def _to_ambient(self) -> IntMatrix:
        """A bar cochain evaluated on sigma_n(1)."""
        terms = sigma_lift(self.G)(self.degree, 0).items()
        chain = [(_tuple_index(self.G, T), g0, c) for (T, g0), c in terms]
        return cochain_map(self.M, [chain], self.G.order**self.degree)

    @cached_property
    def _from_ambient(self) -> IntMatrix:
        """The bar cochain [T] |-> f(tau_n([T])) of a periodic cochain f: one
        lift per tuple, |G|^n of them."""
        tau, n = tau_lift(self.G), self.degree
        chains = ([(0, g0, c) for g0, c in tau(n, T).items()]
                  for T in itertools.product(self.G.elements(), repeat=n))
        return cochain_map(self.M, chains, 1)

    # -- public surface ---------------------------------------------------
    def coords_of(self, cochain):
        if self.resolution == "periodic":
            cochain = self._to_ambient.apply(cochain, self.M.modulus)
        return self.sub.project(self.M.reduce(cochain))

    def rep_of(self, coords) -> tuple:
        vec = self.sub.lift(coords)
        if self.resolution == "periodic":
            return self._from_ambient.apply(vec, self.M.modulus)
        return tuple(vec)

    def classify(self, cochain) -> CohomologyClass:
        return CohomologyClass(
            self.degree, self.M, tuple(cochain), self.coords_of(cochain), self
        )

    def class_from_coords(self, coords) -> CohomologyClass:
        coords = self.sub.coords_mod(coords)
        return CohomologyClass(
            self.degree, self.M, self.rep_of(coords), coords, self
        )

    def generator_classes(self):
        out = []
        ngen = len(self.group.generators)
        for i in range(ngen):
            coords = tuple(1 if j == i else 0 for j in range(ngen))
            out.append(self.class_from_coords(coords))
        return out


@lru_cache(maxsize=CACHE_SIZE)
def cohomology(G: FiniteGroup, M: CoeffModule, degree: int, resolution="auto") -> GroupCohomology:
    return GroupCohomology(G, M, degree, resolution=resolution)


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------


def restriction(cls: CohomologyClass, sub: Subgroup) -> CohomologyClass:
    """Restriction of a class to a subgroup, as a class over that subgroup."""
    if sub.ambient != cls.engine.G:
        raise ValidationError("subgroup of a different group")
    MH, n = cls.module.restrict(sub), cls.degree
    # the value on [T] is the value on the embedded tuple
    chains = ([(_tuple_index(sub.ambient, [sub.embed[h] for h in T]), 0, 1)]
              for T in itertools.product(sub.group.elements(), repeat=n))
    cochain = cochain_map(MH, chains, sub.ambient.order**n).apply(cls.cochain)
    return cohomology(sub.group, MH, n).classify(cochain)


@lru_cache(maxsize=CACHE_SIZE)
class _TransferData:
    """The bar resolution of G is free over Z[H] on the r*[T], r running over
    `reps`, the right coset reps of H; `theta(p, (r, T))` is the image of
    r*[T] under the Z[H]-chain map to the bar resolution of H."""

    def __init__(self, sub: Subgroup):
        G, barG, barH = sub.ambient, BarResolution(sub.ambient), BarResolution(sub.group)
        # split[g] = (h, r) with g = embed(h) * r, r the first element of H*g
        self.reps, split = [], {}
        for r in G.elements():
            if r not in split:
                self.reps.append(r)
                for h, e in enumerate(sub.embed):
                    split[G.mul(e, r)] = (h, r)

        def boundary(p, rT):  # g0*[T2] = h . (r2*[T2]) for g0 = embed(h) * r2
            r, T = rT
            out = []
            for (T2, g0), c in barG.boundary_of_basis(T, r).items():
                h, r2 = split[g0]
                out.append(((r2, T2), h, c))
            return out

        self.theta = chain_lift(boundary, lambda p, x: barH.homotopy(x), barH.act, {((), 0): 1})


def corestriction(sub: Subgroup, module: CoeffModule, cls: CohomologyClass) -> CohomologyClass:
    """Transfer H^n(H, M) -> H^n(G, M); `module` is M as a G-module and `cls`
    lives over sub.group with coefficients module.restrict(sub)."""
    if cls.module != module.restrict(sub):
        raise ValidationError("class coefficients do not match the ambient module")
    td = _TransferData(sub)
    G, H, n = sub.ambient, sub.group, cls.degree

    # sum over the right coset reps r of r^-1 * theta(r [T]): the r^-1 are
    # left coset reps of H, and the sum does not depend on their choice
    def chain(T):
        return [(_tuple_index(H, TH), G.mul(G.inv(r), sub.embed[h0]), c)
                for r in td.reps
                for (TH, h0), c in td.theta(n, (r, T)).items()]

    chains = (chain(T) for T in itertools.product(G.elements(), repeat=n))
    cochain = cochain_map(module, chains, H.order**n).apply(cls.cochain, module.modulus)
    return cohomology(G, module, n).classify(cochain)
