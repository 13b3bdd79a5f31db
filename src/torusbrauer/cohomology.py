"""Cohomology of finite groups with CoeffModule coefficients.

Two engines compute H^n(G, M):

* a periodic one for cyclic groups (norm / difference, instant at any rank),
* the bar cochain complex otherwise (functions on n-tuples of group
  elements, identity components included).

Classes are always carried around as bar cochains, flat vectors indexed by
`_tuple_index` and then coordinate, so restriction, transfer and
pushforward work uniformly; the periodic engine converts back and forth
through explicit chain maps between the two resolutions, built by lifting
through contracting homotopies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegreeTooLargeError, ValidationError
from .groups import CoeffModule, FiniteGroup, Subgroup
from .intlat import IntMatrix, Subquotient, _add_entry

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

    def rank(self, p: int) -> int:
        return self.group.order**p

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
            key = (face, g0)
            c = out.get(key, 0) + sign
            if c:
                out[key] = c
            else:
                del out[key]
        return out

    def boundary(self, element: dict) -> dict:
        out: dict = {}
        for (T, g0), c in element.items():
            for key, c2 in self.boundary_of_basis(T, g0).items():
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def homotopy(self, element: dict) -> dict:
        """Z-linear h(g0*[T]) = [g0|T]; satisfies dh + hd = 1 - eta*eps."""
        out: dict = {}
        for (T, g0), c in element.items():
            key = ((g0,) + T, 0)
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}

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


def bar_delta_matrix(G: FiniteGroup, M: CoeffModule, p: int) -> IntMatrix:
    """Matrix of the inhomogeneous cochain differential C^p -> C^{p+1}, as
    rows with entries reduced mod the modulus of M."""
    k, mod = M.rank, M.modulus
    action = [m.nonzeros for m in M.action]
    bar = BarResolution(G)
    rows = []
    # tuples come in the order of _tuple_index, so row blocks are appended
    for T in bar.basis(p + 1):
        block = [{} for _ in range(k)]
        for (face, g0), c in bar.boundary_of_basis(T).items():
            base = _tuple_index(G, face) * k
            for row, entries in zip(block, action[g0]):
                for j, x in entries.items():
                    _add_entry(row, base + j, c * x, mod)
        rows.extend(block)
    n = G.order
    return IntMatrix(tuple(rows), n ** (p + 1) * k, n**p * k)


def _value(G: FiniteGroup, k: int, cochain, T) -> tuple:
    """The value in M (rank k) of a flat bar cochain on the tuple T."""
    base = _tuple_index(G, T) * k
    return tuple(cochain[base : base + k])


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
        # powers of t: power_index[g] = a with g = t^a
        self.power_of = [0] * self.m
        x = 0
        for a in range(self.m):
            self.power_of[x] = a
            x = G.mul(x, t)
        self.t_power = [0] * self.m
        x = 0
        for a in range(self.m):
            self.t_power[a] = x
            x = G.mul(x, t)

    def d_of_one(self, p: int) -> dict:
        """d_p(1) as a group ring element."""
        if p % 2 == 1:
            return {self.t: 1, 0: -1}
        return {g: 1 for g in self.group.elements()}

    def homotopy(self, target_degree: int, elem: dict) -> dict:
        """h: degree target-1 -> target with d_target h + h d_{target-1} = 1 - eta eps."""
        out: dict = {}
        if target_degree % 2 == 1:
            # geometric sums against (t-1)
            for g, c in elem.items():
                a = self.power_of[g]
                for i in range(a):
                    key = self.t_power[i]
                    out[key] = out.get(key, 0) + c
        else:
            # against the norm: pick out t^(m-1)
            top = self.t_power[self.m - 1]
            c = elem.get(top, 0)
            if c:
                out[0] = c
        return {k: v for k, v in out.items() if v}


def _ring_mul(G: FiniteGroup, a: dict, b: dict) -> dict:
    out: dict = {}
    for g, c in a.items():
        for h, d in b.items():
            k = G.mul(g, h)
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


class CyclicComparison:
    """Chain maps between the bar and periodic resolutions of a cyclic group."""

    def __init__(self, G: FiniteGroup):
        self.G = G
        self.per = PeriodicData(G)
        self.bar = BarResolution(G)
        self._tau: dict = {}  # (p, T) -> group ring element of Per_p
        self._sigma: dict = {}  # p -> bar element for sigma_p(1)

    def tau(self, p: int, T) -> dict:
        """Image of the bar basis element [T] in Per_p."""
        if p == 0:
            return {0: 1}
        key = (p, T)
        if key in self._tau:
            return self._tau[key]
        out: dict = {}
        for (T2, g0), c in self.bar.boundary_of_basis(T).items():
            img = self.tau(p - 1, T2)
            for g, d in _ring_mul(self.G, {g0: 1}, img).items():
                out[g] = out.get(g, 0) + c * d
        res = self.per.homotopy(p, {g: v for g, v in out.items() if v})
        self._tau[key] = res
        return res

    def tau_element(self, p: int, elem: dict) -> dict:
        out: dict = {}
        for (T, g0), c in elem.items():
            for g, d in _ring_mul(self.G, {g0: 1}, self.tau(p, T)).items():
                out[g] = out.get(g, 0) + c * d
        return {g: v for g, v in out.items() if v}

    def sigma(self, p: int) -> dict:
        """sigma_p(1) in Bar_p, for the chain map Per -> Bar."""
        if p == 0:
            return {((), 0): 1}
        if p in self._sigma:
            return self._sigma[p]
        prev = self.sigma(p - 1)
        d1 = self.per.d_of_one(p)
        moved: dict = {}
        for g, c in d1.items():
            for (T, g0), c2 in prev.items():
                key = (T, self.G.mul(g, g0))
                moved[key] = moved.get(key, 0) + c * c2
        res = self.bar.homotopy({k: v for k, v in moved.items() if v})
        self._sigma[p] = res
        return res


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
            self.cmp = CyclicComparison(G)
            per = self.cmp.per
            t = per.t
            diff = M.action[t].add(IntMatrix.identity(M.rank).scale(-1))
            norm = IntMatrix.zero(M.rank, M.rank)
            for g in G.elements():
                norm = norm.add(M.action[g])

            def delta(p):  # C^p -> C^{p+1}
                return diff if p % 2 == 0 else norm

            d_out = delta(n)
            d_in = delta(n - 1) if n >= 1 else IntMatrix.zero(M.rank, 0)
            self.sub = Subquotient(d_out, d_in, modulus=M.modulus)
        elif resolution == "bar":
            d_out = bar_delta_matrix(G, M, n)
            if n >= 1:
                d_in = bar_delta_matrix(G, M, n - 1)
            else:
                d_in = IntMatrix.zero(G.order**n * M.rank, 0)
            self.sub = Subquotient(d_out, d_in, modulus=M.modulus)
        else:
            raise ValueError("unknown resolution kind")
        self.group = self.sub.group

    # -- conversions ------------------------------------------------------
    def _bar_to_ambient(self, cochain):
        if self.resolution == "bar":
            return self.M.reduce(cochain)
        # evaluate the cochain on sigma_n(1)
        vec = [0] * self.M.rank
        for (T, g0), c in self.cmp.sigma(self.degree).items():
            moved = self.M.act(g0, _value(self.G, self.M.rank, cochain, T))
            for j in range(self.M.rank):
                vec[j] += c * moved[j]
        return self.M.reduce(vec)

    def _ambient_to_bar(self, vec) -> tuple:
        if self.resolution == "bar":
            return tuple(vec)
        out = []
        for T in itertools.product(self.G.elements(), repeat=self.degree):
            val = [0] * self.M.rank
            for g0, c in self.cmp.tau(self.degree, T).items():
                moved = self.M.act(g0, vec)
                for j in range(self.M.rank):
                    val[j] += c * moved[j]
            out.extend(self.M.reduce(val))
        return tuple(out)

    # -- public surface ---------------------------------------------------
    def coords_of(self, cochain):
        return self.sub.project(self._bar_to_ambient(cochain))

    def rep_of(self, coords) -> tuple:
        return self._ambient_to_bar(self.sub.lift(coords))

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
    MH = cls.module.restrict(sub)
    cochain = []
    for T in itertools.product(sub.group.elements(), repeat=cls.degree):
        big = tuple(sub.embed[h] for h in T)
        cochain.extend(_value(cls.engine.G, MH.rank, cls.cochain, big))
    eng = cohomology(sub.group, MH, cls.degree)
    return eng.classify(cochain)


@lru_cache(maxsize=CACHE_SIZE)
class _TransferData:
    """Z[H]-chain map from the bar resolution of G (restricted to H) to the
    bar resolution of H, built by lifting through the homotopy of the target."""

    def __init__(self, sub: Subgroup):
        self.sub = sub
        self.G = sub.ambient
        self.H = sub.group
        self.reps = sub.left_coset_reps()
        # reps for the right cosets H\G; the bar terms of G are free over
        # Z[H] on the basis elements r*[T] with r running over these
        self.right_reps = []
        seen = set()
        for g in self.G.elements():
            if g in seen:
                continue
            self.right_reps.append(g)
            for h in sub.embed:
                seen.add(self.G.mul(h, g))
        self.barG = BarResolution(self.G)
        self.barH = BarResolution(self.H)
        self._theta: dict = {}

    def _decompose(self, g: int) -> tuple[int, int]:
        """g = embed(h) * r with r a right-coset rep; returns (h, r)."""
        for r in self.right_reps:
            x = self.G.mul(g, self.G.inv(r))
            if x in self.sub.embed:
                return self.sub.embed.index(x), r
        raise ValidationError("coset decomposition failed")

    def theta_basis(self, p: int, r: int, T) -> dict:
        """theta_p(r*[T]) in Bar_p(H), for r a right coset rep of H."""
        if p == 0:
            return {((), 0): 1}
        key = (p, r, T)
        if key in self._theta:
            return self._theta[key]
        out: dict = {}
        for (T2, g0), c in self.barG.boundary_of_basis(T, r).items():
            for key2, c2 in self.theta_element(p - 1, g0, T2).items():
                out[key2] = out.get(key2, 0) + c * c2
        res = self.barH.homotopy({k: v for k, v in out.items() if v})
        self._theta[key] = res
        return res

    def theta_element(self, p: int, g0: int, T) -> dict:
        h, r = self._decompose(g0)
        out: dict = {}
        for (TH, h0), c in self.theta_basis(p, r, T).items():
            key = (TH, self.H.mul(h, h0))
            out[key] = out.get(key, 0) + c
        return out


def corestriction(sub: Subgroup, module: CoeffModule, cls: CohomologyClass) -> CohomologyClass:
    """Transfer H^n(H, M) -> H^n(G, M); `module` is M as a G-module and `cls`
    lives over sub.group with coefficients module.restrict(sub)."""
    if cls.module != module.restrict(sub):
        raise ValidationError("class coefficients do not match the ambient module")
    td = _TransferData(sub)
    G, H = sub.ambient, sub.group
    n = cls.degree

    def f_eval(elem: dict):
        out = [0] * module.rank
        for (TH, h0), c in elem.items():
            moved = cls.module.act(h0, _value(H, module.rank, cls.cochain, TH))
            for j in range(module.rank):
                out[j] += c * moved[j]
        return out

    cochain = []
    for T in itertools.product(G.elements(), repeat=n):
        total = [0] * module.rank
        for r in td.reps:
            # phi(r^{-1} * [T]) moved back by r
            val = f_eval(td.theta_element(n, G.inv(r), T))
            moved = module.act(r, tuple(val))
            for j in range(module.rank):
                total[j] += moved[j]
        cochain.extend(module.reduce(total))
    eng = cohomology(G, module, n)
    return eng.classify(cochain)
