import itertools
import math
import random

import pytest

from tests import oracles
from tests.test_degree_zero import noncyclic_pairs
from torusbrauer.cohomology import (
    MAX_DEGREE,
    BarResolution,
    SmallResolution,
    _SubgroupMaps,
    bar_cohomology,
    bar_delta_matrix,
    cochain_map,
    cohomology,
    corestriction,
    free_resolution,
    restriction,
)
from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    Subgroup,
    subgroup_generated,
)
from torusbrauer.errors import ValidationError
from torusbrauer.intlat import IntMatrix, Subquotient, smith


def random_element(bar, p, rng, terms=3):
    out = {}
    for _ in range(terms):
        T = tuple(rng.randrange(bar.group.order) for _ in range(p))
        g0 = rng.randrange(bar.group.order)
        out[(T, g0)] = out.get((T, g0), 0) + rng.randrange(-3, 4)
    return {k: v for k, v in out.items() if v}


def bar_boundary(bar, x):
    """d of a bar chain {(T, g0): c}: g0 times the bar faces of [T]."""
    out = {}
    for (T, g0), c in x.items():
        for (face, g), c2 in bar.boundary_of_basis(T).items():
            key = (face, bar.group.mul(g0, g))
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def random_free_element(res, p, rng, terms=3):
    """A random element {(b, g): c} of F_p."""
    out = {}
    for _ in range(terms):
        key = (rng.randrange(res.rank(p)), rng.randrange(res.group.order))
        out[key] = out.get(key, 0) + rng.randrange(-3, 4)
    return {k: v for k, v in out.items() if v}


def cyclic_subgroups(G):
    """The subgroup generated by each element of G, each once."""
    subs = {}
    for g in G.elements():
        sub = subgroup_generated(G, [g])
        subs.setdefault(sub.embed, sub)
    return list(subs.values())


def criterion6_groups():
    """The groups of the acceptance criterion-6 lattices."""
    c2 = FiniteGroup.cyclic(2)
    return {"C2": c2, "C3": FiniteGroup.cyclic(3), "V4": FiniteGroup.direct_product(c2, c2),
            "S3": FiniteGroup.symmetric(3)[0]}


class TestZeroFreeChains:
    """No chain holds a zero coefficient: chains are summed by intlat's _axpy
    and _add_entry, which store none."""

    @pytest.mark.parametrize("name", sorted(criterion6_groups()))
    def test_bar_boundary_and_homotopy(self, name):
        # the bar faces, and the homotopy of the group's resolution F
        G = criterion6_groups()[name]
        bar, res, rng = BarResolution(G), free_resolution(G), random.Random(name)
        for p in range(1, MAX_DEGREE + 1):
            assert all(all(bar.boundary_of_basis(T).values()) for T in bar.basis(p))
            for _ in range(20):
                assert all(res.homotopy(p, random_free_element(res, p - 1, rng, terms=6)).values())

    @pytest.mark.parametrize("name", sorted(criterion6_groups()))
    def test_comparison_chain_maps(self, name):
        # restriction's phi and the transfer's theta, to every cyclic subgroup
        G = criterion6_groups()[name]
        res, chains = free_resolution(G), []
        for sub in cyclic_subgroups(G):
            maps, res_h = _SubgroupMaps(sub), free_resolution(sub.group)
            for p in range(MAX_DEGREE + 1):
                chains += [maps.phi(p, b) for b in range(res_h.rank(p))]
                chains += [maps.theta(p, (b, r)) for b in range(res.rank(p)) for r in maps.reps]
        assert all(all(chain.values()) for chain in chains)


class TestBarResolution:
    def test_ranks(self):
        c2 = FiniteGroup.cyclic(2)
        bar = BarResolution(c2)
        assert [len(list(bar.basis(p))) for p in range(3)] == [1, 2, 4]

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_boundary_squares_to_zero(self, order):
        g = FiniteGroup.cyclic(order)
        bar = BarResolution(g)
        rng = random.Random(order)
        for p in range(2, 5):
            for _ in range(5):
                x = random_element(bar, p, rng)
                assert bar_boundary(bar, bar_boundary(bar, x)) == {}

    @pytest.mark.parametrize("name", sorted(criterion6_groups()))
    def test_boundary_of_low_degrees(self, name):
        # d_0 = 0 (the resolution is not augmented), so a degree-1 chain has
        # a boundary of degree 0 whose boundary is empty
        bar, rng = BarResolution(criterion6_groups()[name]), random.Random(name)
        assert bar.boundary_of_basis(()) == {}
        for p in (1, 2):
            for _ in range(5):
                assert bar_boundary(bar, bar_boundary(bar, random_element(bar, p, rng))) == {}

    def test_delta_squares_to_zero(self):
        s3, _ = FiniteGroup.symmetric(3)
        m = CoeffModule.trivial(s3, 1, 2)
        d1 = bar_delta_matrix(s3, m, 1)
        d2 = bar_delta_matrix(s3, m, 2)
        assert d2.mul(d1, modulus=2).is_zero()


def s3_permutation_module(modulus):
    """Z^3 (or (Z/n)^3) with S3 permuting the coordinates."""
    s3, perms = FiniteGroup.symmetric(3)
    mats = [
        IntMatrix.from_rows([[1 if p[j] == i else 0 for j in range(3)] for i in range(3)])
        for p in perms
    ]
    return s3, CoeffModule.make(s3, 3, modulus, mats)


def add_one(mat: IntMatrix, i: int, j: int) -> IntMatrix:
    """mat with 1 added to entry (i, j)."""
    rows = [dict(row) for row in mat.nonzeros]
    rows[i][j] = rows[i].get(j, 0) + 1
    return IntMatrix(tuple(rows), mat.rows, mat.cols)


def face_formula_matrix(G, M, p):
    """The inhomogeneous coboundary C^p -> C^{p+1} written out face by face,
    (df)(g_1..g_{p+1}) = g_1 f(g_2..g_{p+1})
                         + sum_{i=1..p} (-1)^i f(.., g_i g_{i+1}, ..)
                         + (-1)^{p+1} f(g_1..g_p),
    as dense rows over the cochain layout (tuple index, then coordinate)."""
    k, n = M.rank, M.modulus
    col_of = {T: c for c, T in enumerate(itertools.product(G.elements(), repeat=p))}
    ident = [[int(a == b) for b in range(k)] for a in range(k)]
    rows = []
    for T in itertools.product(G.elements(), repeat=p + 1):
        terms = [(T[1:], M.action[T[0]].entries, 1)]
        for i in range(1, p + 1):
            terms.append((T[: i - 1] + (G.mul(T[i - 1], T[i]),) + T[i + 1 :], ident, (-1) ** i))
        terms.append((T[:-1], ident, (-1) ** (p + 1)))
        block = [[0] * (len(col_of) * k) for _ in range(k)]
        for face, mat, sign in terms:
            base = col_of[face] * k
            for a in range(k):
                for b in range(k):
                    block[a][base + b] += sign * mat[a][b]
        rows.extend([x % n if n else x for x in row] for row in block)
    return IntMatrix.from_rows(rows, ncols=len(col_of) * k)


def face_formula_cases():
    """A module with a non-trivial action over each of C4, V4 and S3."""
    c4 = FiniteGroup.cyclic(4)
    c2 = FiniteGroup.cyclic(2)
    v4 = FiniteGroup.direct_product(c2, c2)
    # element order (0,0), (0,1), (1,0), (1,1): a swap, a sign and both
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    v4_mats = [IntMatrix.identity(2), swap, IntMatrix.identity(2).scale(-1), swap.scale(-1)]
    s3, perms = FiniteGroup.symmetric(3)

    def signed_perm(p):
        sign = (-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        return IntMatrix.from_rows(
            [[sign if p[j] == i else 0 for j in range(3)] for i in range(3)]
        )

    return {
        "C4 mu_4": CoeffModule.mu(c4, 4, (1, 3, 1, 3)),
        "V4 rank 2 mod 4": CoeffModule.make(v4, 2, 4, v4_mats),
        "V4 rank 2 over Z": CoeffModule.make(v4, 2, None, v4_mats),
        "S3 signed permutations mod 3": CoeffModule.make(s3, 3, 3, [signed_perm(p) for p in perms]),
        "S3 permutations over Z": s3_permutation_module(None)[1],
    }


class TestFaceFormula:
    """bar_delta_matrix against the face formula written out in the test."""

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(face_formula_cases()))
    def test_bar_delta_matrix_is_the_face_formula(self, case, p):
        M = face_formula_cases()[case]
        assert bar_delta_matrix(M.group, M, p) == face_formula_matrix(M.group, M, p)


class TestSparseBarRows:
    """The bar differentials are sparse rows, and the composition check of
    Subquotient runs on them."""

    @pytest.mark.parametrize("modulus", [None, 4])
    def test_rows_are_reduced_and_nonzero(self, modulus):
        s3, m = s3_permutation_module(modulus)
        d1 = bar_delta_matrix(s3, m, 1)
        assert (d1.rows, d1.cols) == (6**2 * 3, 6 * 3)
        for row in d1.nonzeros:
            assert all(a != 0 for a in row.values())
            if modulus is not None:
                assert all(0 <= a < modulus for a in row.values())

    @pytest.mark.parametrize("modulus", [None, 4])
    @pytest.mark.parametrize("side", ["d_out", "d_in"])
    def test_one_perturbed_entry_is_caught(self, modulus, side):
        s3, m = s3_permutation_module(modulus)
        d_in, d_out = bar_delta_matrix(s3, m, 0), bar_delta_matrix(s3, m, 1)
        Subquotient(d_out, d_in, modulus=modulus)
        if side == "d_out":
            # d_out * d_in gains row j of d_in in row 0
            j = next(j for j, row in enumerate(d_in.nonzeros) if row)
            d_out = add_one(d_out, 0, j)
        else:
            # d_out * d_in gains column j of d_out in column 0
            j = next(iter(d_out.nonzeros[-1]))
            d_in = add_one(d_in, j, 0)
        with pytest.raises(ValidationError, match=r"^d_out \* d_in != 0$"):
            Subquotient(d_out, d_in, modulus=modulus)


def d_of_one(res, p):
    """d_p(e_0) of a resolution with one basis element in degree p, as a
    group ring element {g: coeff}."""
    out = {}
    for b, g, c in res.boundary(p, 0):
        assert b == 0
        out[g] = out.get(g, 0) + c
    return {g: c for g, c in out.items() if c}


class TestPeriodic:
    """The periodic terms a cyclic group's resolution is given: t - 1 in
    odd degrees, the norm in even ones, one basis element in each."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_exact(self, m):
        res = free_resolution(FiniteGroup.cyclic(m))
        assert [res.rank(p) for p in range(6)] == [1] * 6
        for p in range(1, 5):
            res.check_exact(p)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_swapped_terms_are_not_exact(self, m):
        # past F_1 = Z[G] -(t-1)->, the norm and t - 1 swapped: d_2 = t - 1,
        # so d_1 d_2 = (t - 1)^2 != 0, and for the trivial group d_2 = 0,
        # short of ker d_1 = F_1
        res = SmallResolution(FiniteGroup.cyclic(m))
        res._periodic = res._periodic[::-1]
        message = (r"^d_1 d_2 != 0$" if m > 1 else
                   r"^resolution is not exact at F_1: the translates span rank 0 of 1, with pivots \[\]$")
        with pytest.raises(ValidationError, match=message):
            res.check_exact(1)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_contracting(self, m):
        # d_p h_p + h_{p-1} d_{p-1} = id on degree p-1 (with eta*eps in deg 0)
        g = FiniteGroup.cyclic(m)
        per = free_resolution(g)
        rng = random.Random(m + 17)

        def h(p, y):  # the homotopy on group ring elements {g: c}
            return {g: c for (_, g), c in per.homotopy(p, {(0, g): c for g, c in y.items()}).items()}

        def mul_by(ring_elem, y):
            out = {}
            for a, c in ring_elem.items():
                for b, d in y.items():
                    k = g.mul(a, b)
                    out[k] = out.get(k, 0) + c * d
            return {k: v for k, v in out.items() if v}

        for p in range(1, 5):
            for _ in range(8):
                x = {rng.randrange(m): rng.randrange(-3, 4) for _ in range(3)}
                x = {k: v for k, v in x.items() if v}
                lhs = mul_by(d_of_one(per, p), h(p, x))
                if p - 1 >= 1:
                    extra = h(p - 1, mul_by(d_of_one(per, p - 1), x))
                else:
                    aug = sum(x.values())
                    extra = {0: aug} if aug else {}
                for k, v in extra.items():
                    lhs[k] = lhs.get(k, 0) + v
                assert {k: v for k, v in lhs.items() if v} == x

    def test_d_of_one_trivial_group(self):
        # t = 0, so t - 1 is zero and the norm is 1
        per = free_resolution(FiniteGroup.trivial())
        assert d_of_one(per, 1) == {} and d_of_one(per, 3) == {}
        assert d_of_one(per, 2) == {0: 1}

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_comparison_chain_maps(self, m):
        # restriction's phi and the transfer's theta between the periodic
        # terms of C_m and of each of its subgroups are chain maps
        for sub in cyclic_subgroups(FiniteGroup.cyclic(m)):
            assert_phi_is_chain_map(sub, MAX_DEGREE)
            assert_theta_is_chain_map(sub, MAX_DEGREE)


class TestClassicalValues:
    def test_h_c2_trivial_z(self):
        c2 = FiniteGroup.cyclic(2)
        z = CoeffModule.trivial(c2, 1, None)
        assert cohomology(c2, z, 0).group.free_rank == 1
        assert cohomology(c2, z, 1).group.is_trivial()
        assert cohomology(c2, z, 2).group.torsion == (2,)

    def test_h_c2_sign_z(self):
        c2 = FiniteGroup.cyclic(2)
        z1 = CoeffModule.make(c2, 1, None, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
        assert cohomology(c2, z1, 0).group.is_trivial()
        assert cohomology(c2, z1, 1).group.torsion == (2,)
        assert cohomology(c2, z1, 2).group.is_trivial()

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (6, 6)])
    def test_h_cyclic_mod_n(self, m, n):
        g = FiniteGroup.cyclic(m)
        mod = CoeffModule.trivial(g, 1, n)
        d = math.gcd(m, n)
        for q in range(3):
            h = cohomology(g, mod, q)
            assert h.group.order() == (n if q == 0 else d)

    def test_h2_s3_mod2(self):
        s3, _ = FiniteGroup.symmetric(3)
        mod = CoeffModule.trivial(s3, 1, 2)
        assert cohomology(s3, mod, 0).group.order() == 2
        assert cohomology(s3, mod, 1).group.order() == 2
        assert cohomology(s3, mod, 2).group.order() == 2

    def test_h1_s3_mod3_trivial(self):
        s3, _ = FiniteGroup.symmetric(3)
        mod = CoeffModule.trivial(s3, 1, 3)
        # abelianization is C2, so no maps to Z/3
        assert cohomology(s3, mod, 1).group.is_trivial()

    def test_h2_v4_mod2(self):
        v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        mod = CoeffModule.trivial(v4, 1, 2)
        # polynomial ring on two degree-1 generators: dim H^2 = 3
        assert cohomology(v4, mod, 2).group.order() == 8

    def test_rep_of_is_cocycle(self):
        s3, _ = FiniteGroup.symmetric(3)
        mod = CoeffModule.trivial(s3, 1, 2)
        eng = cohomology(s3, mod, 2)
        for cls in eng.generator_classes():
            # projecting the representative back gives the same coordinates
            assert eng.coords_of(cls.cochain) == cls.coords


class TestCyclicVsBar:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_same_groups_and_roundtrip(self, m):
        g = FiniteGroup.cyclic(m)
        mod = CoeffModule.trivial(g, 1, m)
        for q in range(3):
            per, bar = cohomology(g, mod, q), bar_cohomology(g, mod, q)
            assert per.group.same_structure(bar.group)
            # a representative on F, read on the bar complex through tau and
            # back through sigma, has its class
            for cls in per.generator_classes():
                coords = bar.project(tau_star(per, cls.cochain))
                back = per.coords_of(sigma_star(per, bar.lift(coords)))
                assert back == cls.coords

    @pytest.mark.parametrize("modulus", [6, None])
    def test_trivial_group_agreement(self, modulus):
        triv = FiniteGroup.trivial()
        mod = CoeffModule.trivial(triv, 2, modulus)
        for q in range(4):
            per, bar = cohomology(triv, mod, q), bar_cohomology(triv, mod, q)
            assert per.group.same_structure(bar.group)
            for cls in per.generator_classes():
                coords = bar.project(tau_star(per, cls.cochain))
                assert per.coords_of(sigma_star(per, bar.lift(coords))) == cls.coords

    def test_nontrivial_action_agreement(self):
        g = FiniteGroup.cyclic(4)
        mod = CoeffModule.mu(g, 4, (1, 3, 1, 3))
        for q in range(3):
            per, bar = cohomology(g, mod, q), bar_cohomology(g, mod, q)
            assert per.group.same_structure(bar.group)


def c4_c2_pair():
    c4 = FiniteGroup.cyclic(4)
    return c4, subgroup_generated(c4, [2])


def s3_subgroups():
    s3, _ = FiniteGroup.symmetric(3)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    refl = next(g for g in s3.elements() if s3.element_order(g) == 2)
    return s3, subgroup_generated(s3, [rot]), subgroup_generated(s3, [refl])


def s4_subgroups():
    """S4 with its permutations, D4 (the symmetries of the square 0123), S3
    (the stabilizer of 3), and V4 = <(0 2), (1 3)> as a subgroup of that D4,
    not normal in S4."""
    s4, perms = FiniteGroup.symmetric(4)
    pid = {p: i for i, p in enumerate(perms)}
    d4 = subgroup_generated(s4, [pid[(1, 2, 3, 0)], pid[(2, 1, 0, 3)]])
    s3 = subgroup_generated(s4, [pid[(1, 0, 2, 3)], pid[(1, 2, 0, 3)]])
    v4 = subgroup_generated(d4.group, [d4.embed.index(pid[(2, 1, 0, 3)]),
                                       d4.embed.index(pid[(0, 3, 2, 1)])])
    return s4, perms, d4, s3, v4


def permutation_module(G, perms, modulus):
    """Z^n (or (Z/m)^n) with G permuting the coordinates as `perms` say."""
    n = len(perms[0])
    mats = [IntMatrix.from_rows([[1 if p[j] == i else 0 for j in range(n)] for i in range(n)])
            for p in perms]
    return CoeffModule.make(G, n, modulus, mats)


def s4_module(name):
    G, perms, *_ = s4_subgroups()
    if name == "trivial mod 12":
        return CoeffModule.trivial(G, 1, 12)
    return permutation_module(G, perms, None)


def assert_cores_res_is_the_index(sub, mod, degree):
    eng = cohomology(sub.ambient, mod, degree)
    for cls in eng.generator_classes():
        back = corestriction(sub, mod, restriction(cls, sub))
        assert back.coords == eng.sub.coords_mod(tuple(sub.index * c for c in cls.coords))


class TestResCores:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_c4_c2(self, degree):
        G, sub = c4_c2_pair()
        assert_cores_res_is_the_index(sub, CoeffModule.trivial(G, 1, 4), degree)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("which", ["c3", "c2"])
    def test_s3(self, degree, which):
        G, sub3, sub2 = s3_subgroups()
        sub = sub3 if which == "c3" else sub2
        assert_cores_res_is_the_index(sub, CoeffModule.trivial(G, 1, 6), degree)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("module", ["trivial mod 12", "permutations over Z"])
    @pytest.mark.parametrize("which", ["D4", "S3"])
    def test_s4(self, degree, module, which):
        # non-normal, non-cyclic subgroups, of index 3 and 4
        _, _, d4, s3, _ = s4_subgroups()
        assert_cores_res_is_the_index(d4 if which == "D4" else s3, s4_module(module), degree)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("module", ["trivial mod 12", "permutations over Z"])
    def test_transitivity(self, degree, module):
        # res_K^H res_H^G = res_K^G along S4 > D4 > V4
        G, _, d4, _, v4 = s4_subgroups()
        v4_in_g = Subgroup(G, v4.group, tuple(d4.embed[k] for k in v4.embed))
        mod = s4_module(module)
        assert mod.restrict(v4_in_g) == mod.restrict(d4).restrict(v4)
        for cls in cohomology(G, mod, degree).generator_classes():
            assert restriction(restriction(cls, d4), v4).coords == restriction(cls, v4_in_g).coords

    def test_cores_lands_in_cocycles(self):
        # transferring any cocycle from C3 up to S3 yields a cocycle
        G, sub3, _ = s3_subgroups()
        mod = CoeffModule.trivial(G, 1, 3)
        mh = mod.restrict(sub3)
        engH = cohomology(sub3.group, mh, 1)
        for cls in engH.generator_classes():
            up = corestriction(sub3, mod, cls)
            # classify() would have raised if the cochain were not a cocycle
            assert up.degree == 1


# ---------------------------------------------------------------------------
# cochain maps against their term-by-term definitions
# ---------------------------------------------------------------------------


def add_moved(acc, M, g, c, value):
    """acc += c * (g . value) in place."""
    for j, x in enumerate(M.act(g, value)):
        acc[j] += c * x


def class_order(group, coords):
    return math.lcm(*(t // math.gcd(c, t) for c, t in zip(coords, group.torsion)))


def sigma_star(eng, z):
    """A bar cocycle of the engine's degree read on the periodic F through
    the oracle's sigma."""
    G, M = eng.G, eng.M
    return oracles.periodic_sigma_star(G.table, G.generator_if_cyclic(), z, M.rank, eng.degree)


def tau_star(eng, f):
    """A cochain on the periodic F read on the bar complex through the
    oracle's tau."""
    G, M = eng.G, eng.M
    actions = [a.entries for a in M.action]
    return oracles.periodic_tau_star(G.table, G.generator_if_cyclic(), actions, f, M.modulus,
                                     eng.degree)


def periodic_reference(eng):
    """ker/im of t - 1 and the norm, written out from the action matrices."""
    M, k = eng.M, eng.M.rank
    diff = M.action[eng.G.generator_if_cyclic()].add(IntMatrix.identity(k).scale(-1))
    norm = IntMatrix.zero(k, k)
    for g in eng.G.elements():
        norm = norm.add(M.action[g])

    def delta(p):
        return diff if p % 2 == 0 else norm

    d_in = delta(eng.degree - 1) if eng.degree else IntMatrix.zero(k, 0)
    return Subquotient(delta(eng.degree), d_in, modulus=M.modulus)


def cyclic_modules(m):
    """Modules over C_m: trivial mod 2m and over Z, and the sign module mod
    2m and over Z for even m."""
    g = FiniteGroup.cyclic(m)
    out = [CoeffModule.trivial(g, 1, 2 * m), CoeffModule.trivial(g, 2, None)]
    if m % 2 == 0:
        sign = [IntMatrix.from_rows([[(-1) ** a]]) for a in g.elements()]
        out += [CoeffModule.make(g, 1, 2 * m, sign), CoeffModule.make(g, 1, None, sign)]
    return out


def bar_cocycles(bar, M, n, rng, count=4):
    """Random bar n-cocycles, each with its coordinates on the bar
    generators: a sum of the generators plus a coboundary."""
    d_in = bar_delta_matrix(M.group, M, n - 1) if n else None
    out = []
    for _ in range(count):
        coeffs = [rng.randrange(-2, 3) for _ in bar.group.generators]
        z = [0] * bar.ambient
        for c, rep in zip(coeffs, bar.group.generators):
            z = [a + c * b for a, b in zip(z, rep)]
        if d_in is not None:
            pert = [rng.randrange(-2, 3) for _ in range(d_in.cols)]
            z = [a + b for a, b in zip(z, d_in.apply(pert))]
        out.append((tuple(M.reduce(z)), coeffs))
    return out


def free_cocycles(G, M, n, rng, count=4):
    """Random n-cocycles on F: a sum of the engine's representatives plus a
    coboundary."""
    res = free_resolution(G)
    reps = [cls.cochain for cls in cohomology(G, M, n).generator_classes()]
    d_in = (cochain_map(M, [res.boundary(n, b) for b in range(res.rank(n))], res.rank(n - 1))
            if n else None)
    out = []
    for _ in range(count):
        z = [0] * (res.rank(n) * M.rank)
        for rep in reps:
            c = rng.randrange(-2, 3)
            z = [a + c * b for a, b in zip(z, rep)]
        if d_in is not None:
            pert = [rng.randrange(-2, 3) for _ in range(d_in.cols)]
            z = [a + b for a, b in zip(z, d_in.apply(pert))]
        out.append(tuple(M.reduce(z)))
    return out


class TestPeriodicMaps:
    """The engine on the periodic terms against the bar complex: t - 1 and
    the norm, and the chain maps sigma: F -> Bar and tau: Bar -> F written
    out in tests/oracles.py, with no lifting."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_coboundaries(self, m):
        for M in cyclic_modules(m):
            for n in range(4):
                eng = cohomology(M.group, M, n)
                assert eng.group == periodic_reference(eng).group

    @pytest.mark.parametrize("m", range(1, 7))
    def test_coords_of_is_evaluation_on_sigma(self, m):
        # a bar cocycle evaluated on sigma_n(e) is a cocycle on F; in
        # positive degree the images of the bar generators have their orders
        # and span the engine's group, and a coboundary goes to 0
        rng = random.Random(m)
        for M in cyclic_modules(m):
            for n in range(4 if m <= 4 else 3):
                eng, bar = cohomology(M.group, M, n), bar_cohomology(M.group, M, n)
                images = [eng.coords_of(sigma_star(eng, z)) for z in bar.group.generators]
                if n:
                    assert [class_order(eng.group, c) for c in images] == list(bar.group.torsion)
                    assert len(span_of(images, eng.group.torsion)) == eng.group.order()
                for z, coeffs in bar_cocycles(bar, M, n, rng):
                    want = [sum(c * v[i] for c, v in zip(coeffs, images))
                            for i in range(len(eng.group.generators))]
                    assert eng.coords_of(sigma_star(eng, z)) == eng.sub.coords_mod(want)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_rep_of_is_tau(self, m):
        # a representative on F read on tau_n([T]) is a bar cocycle (project
        # raises otherwise), and read back on sigma_n(e) it has its class
        rng = random.Random(m)
        for M in cyclic_modules(m):
            for n in range(4 if m <= 4 else 3):
                eng, bar = cohomology(M.group, M, n), bar_cohomology(M.group, M, n)
                for _ in range(3):
                    coords = tuple(rng.randrange(-3, 4) for _ in eng.group.generators)
                    cls = eng.class_from_coords(coords)
                    on_bar = tau_star(eng, cls.cochain)
                    bar.project(on_bar)
                    assert eng.coords_of(sigma_star(eng, on_bar)) == cls.coords


def assert_phi_is_chain_map(sub, top):
    """d_G phi_p(e_b) = phi_{p-1}(d_H e_b) for p = 1..top, h acting on F_G
    by embed(h)."""
    G, phi = sub.ambient, _SubgroupMaps(sub).phi
    res_g, res_h = free_resolution(G), free_resolution(sub.group)
    for p in range(1, top + 1):
        for b in range(res_h.rank(p)):
            rhs = {}
            for b2, h, c in res_h.boundary(p, b):
                for (b3, g), c2 in phi(p - 1, b2).items():
                    key = (b3, G.mul(sub.embed[h], g))
                    rhs[key] = rhs.get(key, 0) + c * c2
            assert free_boundary(res_g, p, phi(p, b)) == {k: v for k, v in rhs.items() if v}


def theta_of(sub, p, g0, b):
    """theta_p(g0.e_b) in F_H: g0 = embed(h) * r with r one of the right
    coset reps theta is built on, and theta is Z[H]-linear."""
    maps, G = _SubgroupMaps(sub), sub.ambient
    for r in maps.reps:
        x = G.mul(g0, G.inv(r))
        if x in sub.embed:
            h = sub.embed.index(x)
            return {(b2, sub.group.mul(h, h0)): c for (b2, h0), c in maps.theta(p, (b, r)).items()}
    raise AssertionError("no right coset rep")


def assert_theta_is_chain_map(sub, top):
    """d_H theta_p(g0.e_b) = theta_{p-1}(d_G(g0.e_b)) for every g0 in G and
    p = 1..top."""
    G = sub.ambient
    res_g, res_h = free_resolution(G), free_resolution(sub.group)
    for p in range(1, top + 1):
        for b in range(res_g.rank(p)):
            for g0 in G.elements():
                rhs = {}
                for b2, g, c in res_g.boundary(p, b):
                    for key, c2 in theta_of(sub, p - 1, G.mul(g0, g), b2).items():
                        rhs[key] = rhs.get(key, 0) + c * c2
                lhs = free_boundary(res_h, p, theta_of(sub, p, g0, b))
                assert lhs == {k: v for k, v in rhs.items() if v}


def restricted_cochain(cls, sub):
    """e_b |-> f(phi_n(e_b)) for e_b in F_n of the subgroup, term by term."""
    M, k, n = cls.module, cls.module.rank, cls.degree
    phi = _SubgroupMaps(sub).phi
    out = []
    for b in range(free_resolution(sub.group).rank(n)):
        val = [0] * k
        for (b2, g), c in phi(n, b).items():
            add_moved(val, M, g, c, cls.cochain[b2 * k : (b2 + 1) * k])
        out.extend(M.reduce(val))
    return tuple(out)


def transferred_cochain(sub, module, cls):
    """e_b |-> sum_r r . f(theta(r^-1 e_b)) over left coset reps r."""
    G, k, n = sub.ambient, module.rank, cls.degree
    out = []
    for b in range(free_resolution(G).rank(n)):
        total = [0] * k
        for r in sub.left_coset_reps():
            val = [0] * k
            for (b2, h0), c in theta_of(sub, n, G.inv(r), b).items():
                add_moved(val, cls.module, h0, c, cls.cochain[b2 * k : (b2 + 1) * k])
            add_moved(total, module, r, 1, val)
        out.extend(module.reduce(total))
    return tuple(out)


def res_cores_cases():
    G, sub = c4_c2_pair()
    s3, sub3, sub2 = s3_subgroups()
    _, sign_z = s3_sign_module(None)
    _, sign_6 = s3_sign_module(6)
    return {
        "C4 > C2 mod 4": (sub, CoeffModule.trivial(G, 1, 4)),
        "C4 > C2 mu_4": (sub, CoeffModule.mu(G, 4, (1, 3, 1, 3))),
        "S3 > C3 mod 6": (sub3, CoeffModule.trivial(s3, 1, 6)),
        "S3 > C2 mod 6": (sub2, CoeffModule.trivial(s3, 1, 6)),
        "S3 > C3 sign over Z": (sub3, sign_z),
        "S3 > C2 sign over Z": (sub2, sign_z),
        "S3 > C2 sign mod 6": (sub2, sign_6),
        "S3 > C3 permutations over Z": (sub3, s3_permutation_module(None)[1]),
        "S3 > C2 permutations over Z": (sub2, s3_permutation_module(None)[1]),
    }


def s3_sign_module(modulus):
    s3, perms = FiniteGroup.symmetric(3)
    signs = [(-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) for p in perms]
    return s3, CoeffModule.make(s3, 1, modulus, [IntMatrix.from_rows([[s]]) for s in signs])


class TestInducedMaps:
    """restriction and corestriction against their term loops."""

    @pytest.mark.parametrize("which", ["C4 > C2", "S3 > C3", "S3 > C2"])
    def test_theta_is_chain_map(self, which):
        # and phi, restriction's chain map
        _, c4_c2 = c4_c2_pair()
        _, s3_c3, s3_c2 = s3_subgroups()
        sub = {"C4 > C2": c4_c2, "S3 > C3": s3_c3, "S3 > C2": s3_c2}[which]
        assert_theta_is_chain_map(sub, MAX_DEGREE)
        assert_phi_is_chain_map(sub, MAX_DEGREE)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(res_cores_cases()))
    def test_restriction(self, case, degree):
        sub, mod = res_cores_cases()[case]
        rng = random.Random(degree)
        for z in free_cocycles(sub.ambient, mod, degree, rng):
            cls = cohomology(sub.ambient, mod, degree).classify(z)
            assert restriction(cls, sub).cochain == restricted_cochain(cls, sub)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(res_cores_cases()))
    def test_corestriction(self, case, degree):
        sub, mod = res_cores_cases()[case]
        mh = mod.restrict(sub)
        rng = random.Random(degree)
        for z in free_cocycles(sub.group, mh, degree, rng):
            cls = cohomology(sub.group, mh, degree).classify(z)
            assert corestriction(sub, mod, cls).cochain == transferred_cochain(sub, mod, cls)


def oracle_cases():
    """(subgroup, module over the ambient group) of every restriction and
    transfer case: res_cores_cases, the degree-0 pairs, S4 > D4 and S4 > S3."""
    G, perms, d4, s3, _ = s4_subgroups()
    cases = {**res_cores_cases(), **noncyclic_pairs()}
    cases["S4 > D4 permutations over Z"] = (d4, permutation_module(G, perms, None))
    cases["S4 > S3 permutations mod 12"] = (s3, permutation_module(G, perms, 12))
    return cases


def f1_generators(G):
    """The s_b of d_1(e_b) = s_b - 1 on F_1 (the identity where d_1 = 0)."""
    res = free_resolution(G)
    return [next((g for _, g, c in res.boundary(1, b) if c == 1), 0) for b in range(res.rank(1))]


def homomorphism_values(G, gens, values, m):
    """phi(g) for every g in G from phi(s) = value on the generators s, by
    phi(x s) = phi(x) + phi(s) along words from the identity; checks that
    phi is a homomorphism to Z/m."""
    phi, frontier = {0: 0}, [0]
    while frontier:
        x = frontier.pop()
        for s, v in zip(gens, values):
            y = G.mul(x, s)
            if y not in phi:
                phi[y] = (phi[x] + v) % m
                frontier.append(y)
    assert len(phi) == G.order
    assert all(phi[G.mul(x, y)] == (phi[x] + phi[y]) % m for x in phi for y in phi)
    return phi


class TestInducedMapsOracle:
    """Restriction and transfer against values that share no code with
    chain_lift or any homotopy.  In degree 0 a class is its fixed vector:
    restriction keeps it, and the transfer is the norm over the left coset
    reps.  In degree 1 with trivial Z/m coefficients a class is a
    homomorphism phi: G -> Z/m, read off F_1 as phi(s_b) = f(e_b), and its
    restriction is phi o embed; the transfer of a homomorphism psi on H is
    psi o V, V the transfer to H^ab: V(g) = sum_i h_i over a left
    transversal t_i of H, with g t_i = t_j h_i."""

    @pytest.mark.parametrize("case", sorted(oracle_cases()))
    def test_degree_zero(self, case):
        sub, M = oracle_cases()[case]
        for cls in cohomology(sub.ambient, M, 0).generator_classes():
            assert restriction(cls, sub).cochain == cls.cochain
        for cls in cohomology(sub.group, M.restrict(sub), 0).generator_classes():
            norm = [0] * M.rank
            for r in sub.left_coset_reps():
                add_moved(norm, M, r, 1, cls.cochain)
            assert corestriction(sub, M, cls).cochain == tuple(M.reduce(norm))

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("case", sorted(oracle_cases()))
    def test_degree_one(self, case, m):
        sub, _ = oracle_cases()[case]
        G, rng = sub.ambient, random.Random(case)
        eng = cohomology(G, CoeffModule.trivial(G, 1, m), 1)
        coords = [tuple(rng.randrange(m) for _ in eng.group.generators) for _ in range(3)]
        classes = eng.generator_classes() + [eng.class_from_coords(c) for c in coords]
        gens_h = f1_generators(sub.group)
        for cls in classes:
            phi = homomorphism_values(G, f1_generators(G), cls.cochain, m)
            want = tuple(phi[sub.embed[s]] for s in gens_h)
            assert restriction(cls, sub).cochain == want
        engh = cohomology(sub.group, CoeffModule.trivial(sub.group, 1, m), 1)
        reps = sub.left_coset_reps()
        for cls in engh.generator_classes():
            psi = homomorphism_values(sub.group, gens_h, cls.cochain, m)
            want = []
            for s in f1_generators(G):
                total = 0
                for t in reps:  # s t = t_j h with h in H
                    h = next(G.mul(G.inv(u), G.mul(s, t)) for u in reps
                             if G.mul(G.inv(u), G.mul(s, t)) in sub.embed)
                    total += psi[sub.embed.index(h)]
                want.append(total % m)
            assert corestriction(sub, CoeffModule.trivial(G, 1, m), cls).cochain == tuple(want)


# ---------------------------------------------------------------------------
# the small resolution of a non-cyclic group
# ---------------------------------------------------------------------------


def _quaternion_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def noncyclic_groups():
    """name -> (group, top degree of F checked): non-cyclic groups of order
    4 to 24.  D4 is generated by two reflections of the square; from a
    rotation and a reflection the greedy picking gives F_3 rank 5."""
    c2 = FiniteGroup.cyclic(2)
    quaternion_units = [(0, 1, 0, 0), (0, 0, 1, 0)]
    return {
        "V4": (FiniteGroup.direct_product(c2, c2), 4),
        "S3": (FiniteGroup.symmetric(3)[0], 4),
        "D4": (FiniteGroup.from_concrete([(1, 0, 3, 2), (0, 3, 2, 1)], _perm_mul, (0, 1, 2, 3))[0], 4),
        "Q8": (FiniteGroup.from_concrete(quaternion_units, _quaternion_mul, (1, 0, 0, 0))[0], 4),
        "A4": (FiniteGroup.from_concrete([(1, 2, 0, 3), (1, 0, 3, 2)], _perm_mul, (0, 1, 2, 3))[0], 3),
        "C2xC4": (FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4)), 4),
        "S4": (FiniteGroup.symmetric(4)[0], 3),
    }


def free_boundary(res, p, x):
    """d_p on an element {(b, g): c} of F_p: d(g.e_b) = g.d(e_b)."""
    mul, out = res.group.table, {}
    for (b, g), c in x.items():
        for b2, g2, c2 in res.boundary(p, b):
            key = (b2, mul[g][g2])
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def smith_rank_and_units(A):
    """The rank of A, and whether its nonzero invariant factors are all 1."""
    d = [x for x in smith(A).diagonal() if x]
    return len(d), all(x == 1 for x in d)


class TestSmallResolution:
    @pytest.mark.parametrize("name", ["V4", "S3", "D4"])
    def test_ranks(self, name):
        res = SmallResolution(noncyclic_groups()[name][0])
        assert [res.rank(p) for p in range(4)] == [1, 2, 3, 4]

    def test_terms_are_built_on_demand(self):
        res = SmallResolution(noncyclic_groups()["S3"][0])
        res.boundary(3, 0)
        assert len(res._d) == 4  # F_0 .. F_3, no more

    @pytest.mark.parametrize("name", sorted(noncyclic_groups()))
    def test_d_squared_is_zero(self, name):
        G, top = noncyclic_groups()[name]
        res = SmallResolution(G)
        # the augmentation kills d_1: each column sums to zero
        assert all(sum(res.matrix(1).column(j)) == 0 for j in range(res.matrix(1).cols))
        for p in range(2, top + 1):
            assert res.matrix(p - 1).mul(res.matrix(p)).is_zero()

    @pytest.mark.parametrize("name", sorted(noncyclic_groups()))
    def test_exact(self, name):
        # im d_{p+1} has the rank of ker d_p (rank d_p + rank d_{p+1} is the
        # rank of F_p, with the augmentation, of rank 1, as d_0) and index 1
        # in it (d_{p+1} has unit invariant factors), so the two are equal;
        # check_exact reads the same off its span of translates
        G, top = noncyclic_groups()[name]
        res = SmallResolution(G)
        below = 1
        for p in range(top):
            rank, units = smith_rank_and_units(res.matrix(p + 1))
            assert units and below + rank == G.order * res.rank(p)
            below = rank
            if p:
                res.check_exact(p)

    def test_a_dropped_generator_breaks_exactness(self):
        res = SmallResolution(noncyclic_groups()["S3"][0])
        res.check_exact(1)
        # without its last generator, the translates of the others are
        # short of ker d_1: the picking took that one because they were
        res._d[2].pop()
        with pytest.raises(ValidationError, match=r"^resolution is not exact at F_1: the translates "
                           r"span rank 6 of 7, with pivots \[1, 1, 1, 1, 1, 1\]$"):
            res.check_exact(1)

    @pytest.mark.parametrize("name", sorted(noncyclic_groups()))
    def test_contracting_homotopy(self, name):
        # d h + h d = 1 - eta eps on every Z-basis element g.e_b of F_p
        G, top = noncyclic_groups()[name]
        res = SmallResolution(G)
        for p in range(top):
            for b in range(res.rank(p)):
                for g in G.elements():
                    x = {(b, g): 1}
                    lhs = free_boundary(res, p + 1, res.homotopy(p + 1, x))
                    if p:
                        for k, v in res.homotopy(p, free_boundary(res, p, x)).items():
                            lhs[k] = lhs.get(k, 0) + v
                    else:
                        lhs[(0, 0)] = lhs.get((0, 0), 0) + 1  # eta eps x = e_0
                    assert {k: v for k, v in lhs.items() if v} == x

    @pytest.mark.parametrize("name", sorted(set(noncyclic_groups()) - {"S4"}))
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_engine_against_bar(self, name, m):
        G = noncyclic_groups()[name][0]
        M = CoeffModule.trivial(G, 1, m)
        for q in (1, 2):
            eng, bar = cohomology(G, M, q), bar_cohomology(G, M, q)
            assert eng.res is free_resolution(G)
            assert eng.group.same_structure(bar.group)
            for cls in eng.generator_classes():
                assert eng.coords_of(cls.cochain) == cls.coords
        # a bar 1-cocycle z is a homomorphism, read on F_1 as f(e_b) = z(s_b)
        # for d_1(e_b) = s_b - 1: the bar generators span the engine's group
        eng, bar = cohomology(G, M, 1), bar_cohomology(G, M, 1)
        images = [eng.coords_of([z[s] for s in f1_generators(G)]) for z in bar.group.generators]
        assert len(span_of(images, eng.group.torsion)) == eng.group.order()


def span_of(vectors, orders):
    """The subgroup of the sum of the Z/t, t in orders, spanned by vectors."""
    zero = (0,) * len(orders)
    span, frontier = {zero}, [zero]
    while frontier:
        v = frontier.pop()
        for w in vectors:
            u = tuple((x + y) % t for x, y, t in zip(v, w, orders))
            if u not in span:
                span.add(u)
                frontier.append(u)
    return span
