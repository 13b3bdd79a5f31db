import itertools
import math
import random

import pytest

from torusbrauer.cohomology import (
    MAX_DEGREE,
    BarResolution,
    SmallResolution,
    _TransferData,
    bar_delta_matrix,
    cohomology,
    corestriction,
    free_resolution,
    restriction,
    sigma_lift,
    tau_lift,
)
from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    subgroup_generated,
)
from torusbrauer.errors import CompositionNonzeroError, NotExactError
from torusbrauer.intlat import IntMatrix, Subquotient, smith


def random_element(bar, p, rng, terms=3):
    out = {}
    for _ in range(terms):
        T = tuple(rng.randrange(bar.group.order) for _ in range(p))
        g0 = rng.randrange(bar.group.order)
        out[(T, g0)] = out.get((T, g0), 0) + rng.randrange(-3, 4)
    return {k: v for k, v in out.items() if v}


def criterion6_groups():
    """The groups of the acceptance criterion-6 lattices."""
    c2 = FiniteGroup.cyclic(2)
    return {"C2": c2, "C3": FiniteGroup.cyclic(3), "V4": FiniteGroup.direct_product(c2, c2),
            "S3": FiniteGroup.symmetric(3)[0]}


class TestZeroFreeChains:
    """No chain holds a zero coefficient: chains are summed by intlat's _axpy
    and _add_entry, which store none, and BarResolution.homotopy copies terms
    one for one."""

    @pytest.mark.parametrize("name", sorted(criterion6_groups()))
    def test_bar_boundary_and_homotopy(self, name):
        bar, rng = BarResolution(criterion6_groups()[name]), random.Random(name)
        for p in range(2, MAX_DEGREE + 1):
            for _ in range(20):
                x = random_element(bar, p, rng, terms=6)
                d, h = bar.boundary(x), bar.homotopy(x)
                for chain in (d, h, bar.boundary(d), bar.boundary(h), bar.homotopy(d)):
                    assert all(chain.values())

    @pytest.mark.parametrize("name", sorted(criterion6_groups()))
    def test_comparison_chain_maps(self, name):
        G = criterion6_groups()[name]
        tuples = [(p, T) for p in range(MAX_DEGREE + 1)
                  for T in itertools.product(G.elements(), repeat=p)]
        chains = []
        if G.generator_if_cyclic() is not None:
            res = free_resolution(G)
            sigma, tau = sigma_lift(res), tau_lift(res)
            chains += [sigma(p, 0) for p in range(MAX_DEGREE + 1)]
            chains += [tau(p, T) for p, T in tuples]
        for g in G.elements():
            td = _TransferData(subgroup_generated(G, [g]))
            chains += [td.theta(p, (r, T)) for p, T in tuples for r in td.reps]
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
                assert bar.boundary(bar.boundary(x)) == {}

    @pytest.mark.parametrize("name", sorted(criterion6_groups()))
    def test_boundary_of_low_degrees(self, name):
        # d_0 = 0 (the resolution is not augmented), so a degree-1 chain has
        # a boundary of degree 0 whose boundary is empty
        bar, rng = BarResolution(criterion6_groups()[name]), random.Random(name)
        assert bar.boundary_of_basis(()) == {} and bar.boundary_of_basis((), 1) == {}
        for p in (1, 2):
            for _ in range(5):
                assert bar.boundary(bar.boundary(random_element(bar, p, rng))) == {}

    def test_homotopy_identity(self):
        s3, _ = FiniteGroup.symmetric(3)
        bar = BarResolution(s3)
        rng = random.Random(5)
        for p in range(1, 3):
            for _ in range(5):
                x = random_element(bar, p, rng)
                lhs = bar.boundary(bar.homotopy(x))
                for k, v in bar.homotopy(bar.boundary(x)).items():
                    lhs[k] = lhs.get(k, 0) + v
                assert {k: v for k, v in lhs.items() if v} == x
        # degree 0: dh + eta eps = id
        for _ in range(5):
            x = random_element(bar, 0, rng)
            lhs = bar.boundary(bar.homotopy(x))
            lhs[((), 0)] = lhs.get(((), 0), 0) + bar.augmentation(x)
            assert {k: v for k, v in lhs.items() if v} == x

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
        with pytest.raises(CompositionNonzeroError):
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
        with pytest.raises(NotExactError):
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
        g = FiniteGroup.cyclic(m)
        per = free_resolution(g)
        tau, sigma = tau_lift(per), sigma_lift(per)
        bar = BarResolution(g)
        rng = random.Random(m + 3)

        def mul_by(ring_elem, y):
            out = {}
            for a, c in ring_elem.items():
                for b, d in y.items():
                    k = g.mul(a, b)
                    out[k] = out.get(k, 0) + c * d
            return {k: v for k, v in out.items() if v}

        def tau_element(p, x):  # tau on sum c * g0[T], extended Z[G]-linearly
            out = {}
            for (T, g0), c in x.items():
                for k, d in mul_by({g0: 1}, {g: c for (_, g), c in tau(p, T).items()}).items():
                    out[k] = out.get(k, 0) + c * d
            return {k: v for k, v in out.items() if v}

        # tau is a chain map: d_per(tau(x)) = tau(d_bar(x))
        for p in range(1, 4):
            for _ in range(6):
                x = random_element(bar, p, rng)
                lhs = mul_by(d_of_one(per, p), tau_element(p, x))
                rhs = tau_element(p - 1, bar.boundary(x))
                assert lhs == rhs
        # sigma is a chain map: d_bar(sigma_p(1)) = sigma_{p-1}(d_per(1))
        for p in range(1, 4):
            lhs = bar.boundary(sigma(p, 0))
            rhs = {}
            for h, c in d_of_one(per, p).items():
                for (T, g0), c2 in sigma(p - 1, 0).items():
                    key = (T, g.mul(h, g0))
                    rhs[key] = rhs.get(key, 0) + c * c2
            assert lhs == {k: v for k, v in rhs.items() if v}
        # tau . sigma = id on the periodic side; on the trivial group d_1 = 0,
        # so sigma_1(1) = h(0) = 0 and the two agree in degree 0 only
        for p in range(4):
            want = {0: 1} if m > 1 or p == 0 else {}
            assert tau_element(p, sigma(p, 0)) == want


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
            per = cohomology(g, mod, q)
            bar = cohomology(g, mod, q, resolution="bar")
            assert per.group.same_structure(bar.group)
            # a periodic representative is recognized by the bar engine
            for cls in per.generator_classes():
                coords = bar.coords_of(cls.cochain)
                back = per.coords_of(bar.rep_of(coords))
                assert back == cls.coords

    @pytest.mark.parametrize("modulus", [6, None])
    def test_trivial_group_agreement(self, modulus):
        triv = FiniteGroup.trivial()
        mod = CoeffModule.trivial(triv, 2, modulus)
        for q in range(4):
            per = cohomology(triv, mod, q)
            bar = cohomology(triv, mod, q, resolution="bar")
            assert per.group.same_structure(bar.group)
            for cls in per.generator_classes():
                coords = bar.coords_of(cls.cochain)
                assert per.coords_of(bar.rep_of(coords)) == cls.coords

    def test_nontrivial_action_agreement(self):
        g = FiniteGroup.cyclic(4)
        mod = CoeffModule.mu(g, 4, (1, 3, 1, 3))
        for q in range(3):
            per = cohomology(g, mod, q)
            bar = cohomology(g, mod, q, resolution="bar")
            assert per.group.same_structure(bar.group)


def c4_c2_pair():
    c4 = FiniteGroup.cyclic(4)
    return c4, subgroup_generated(c4, [2])


def s3_subgroups():
    s3, _ = FiniteGroup.symmetric(3)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    refl = next(g for g in s3.elements() if s3.element_order(g) == 2)
    return s3, subgroup_generated(s3, [rot]), subgroup_generated(s3, [refl])


class TestResCores:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_c4_c2(self, degree):
        G, sub = c4_c2_pair()
        mod = CoeffModule.trivial(G, 1, 4)
        eng = cohomology(G, mod, degree)
        for cls in eng.generator_classes():
            res = restriction(cls, sub)
            back = corestriction(sub, mod, res)
            expected = eng.sub.coords_mod(tuple(sub.index * c for c in cls.coords))
            assert back.coords == expected

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("which", ["c3", "c2"])
    def test_s3(self, degree, which):
        G, sub3, sub2 = s3_subgroups()
        sub = sub3 if which == "c3" else sub2
        mod = CoeffModule.trivial(G, 1, 6)
        eng = cohomology(G, mod, degree)
        for cls in eng.generator_classes():
            res = restriction(cls, sub)
            back = corestriction(sub, mod, res)
            expected = eng.sub.coords_mod(tuple(sub.index * c for c in cls.coords))
            assert back.coords == expected

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


def tuple_columns(G, n):
    """Position of each n-tuple in the flat cochain layout."""
    return {T: i for i, T in enumerate(itertools.product(G.elements(), repeat=n))}


def add_moved(acc, M, g, c, value):
    """acc += c * (g . value) in place."""
    for j, x in enumerate(M.act(g, value)):
        acc[j] += c * x


def sigma_ambient(eng, cochain):
    """A bar cochain evaluated on sigma_n(1), term by term."""
    M, k = eng.M, eng.M.rank
    col = tuple_columns(eng.G, eng.degree)
    vec = [0] * k
    for (T, g0), c in sigma_lift(eng.res)(eng.degree, 0).items():
        add_moved(vec, M, g0, c, cochain[col[T] * k : (col[T] + 1) * k])
    return M.reduce(vec)


def tau_cochain(eng, vec):
    """The bar cochain [T] |-> f(tau_n([T])) of a periodic cochain f."""
    M, tau = eng.M, tau_lift(eng.res)
    out = []
    for T in itertools.product(eng.G.elements(), repeat=eng.degree):
        val = [0] * M.rank
        for (_, g0), c in tau(eng.degree, T).items():
            add_moved(val, M, g0, c, vec)
        out.extend(M.reduce(val))
    return tuple(out)


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


def bar_cocycles(G, M, n, rng, count=4):
    """Random bar n-cocycles: class representatives plus coboundaries."""
    bar = cohomology(G, M, n, resolution="bar")
    reps = [cls.cochain for cls in bar.generator_classes()]
    d_in = bar_delta_matrix(G, M, n - 1) if n else None
    out = []
    for _ in range(count):
        z = [0] * (G.order**n * M.rank)
        for rep in reps:
            c = rng.randrange(-2, 3)
            z = [a + c * b for a, b in zip(z, rep)]
        if d_in is not None:
            pert = [rng.randrange(-2, 3) for _ in range(d_in.cols)]
            z = [a + b for a, b in zip(z, d_in.apply(pert))]
        out.append(tuple(M.reduce(z)))
    return out


class TestPeriodicMaps:
    """The periodic engine's coboundaries and comparison maps against their
    definitions: t - 1 and the norm, evaluation on sigma_n(1), and the
    values on tau_n([T])."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_coboundaries(self, m):
        for M in cyclic_modules(m):
            for n in range(4):
                eng = cohomology(M.group, M, n)
                assert eng.group == periodic_reference(eng).group

    @pytest.mark.parametrize("m", range(1, 7))
    def test_coords_of_is_evaluation_on_sigma(self, m):
        rng = random.Random(m)
        for M in cyclic_modules(m):
            for n in range(4 if m <= 4 else 3):
                eng = cohomology(M.group, M, n)
                for z in bar_cocycles(M.group, M, n, rng):
                    assert eng.coords_of(z) == eng.sub.project(sigma_ambient(eng, z))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_rep_of_is_tau(self, m):
        rng = random.Random(m)
        for M in cyclic_modules(m):
            for n in range(4 if m <= 4 else 3):
                eng = cohomology(M.group, M, n)
                ngen = len(eng.group.generators)
                for _ in range(3):
                    coords = tuple(rng.randrange(-3, 4) for _ in range(ngen))
                    want = tau_cochain(eng, eng.sub.lift(coords))
                    assert eng.rep_of(coords) == want


def restricted_cochain(cls, sub):
    """[T] |-> f([embed T]) for T over the subgroup."""
    k = cls.module.rank
    col = tuple_columns(sub.ambient, cls.degree)
    out = []
    for T in itertools.product(sub.group.elements(), repeat=cls.degree):
        c = col[tuple(sub.embed[h] for h in T)]
        out.extend(cls.cochain[c * k : (c + 1) * k])
    return tuple(out)


def theta_of(sub, p, g0, T):
    """theta_p(g0 [T]) in the bar resolution of the subgroup: g0 = h * r with r
    one of the right coset reps theta is built on, and theta is Z[H]-linear."""
    td = _TransferData(sub)
    G = sub.ambient
    for r in td.reps:
        x = G.mul(g0, G.inv(r))
        if x in sub.embed:
            h = sub.embed.index(x)
            return {(TH, sub.group.mul(h, h0)): c for (TH, h0), c in td.theta(p, (r, T)).items()}
    raise AssertionError("no right coset rep")


def transferred_cochain(sub, module, cls):
    """[T] |-> sum_r r . f(theta(r^-1 [T])) over left coset reps r."""
    G, k, n = sub.ambient, module.rank, cls.degree
    col = tuple_columns(sub.group, n)
    out = []
    for T in itertools.product(G.elements(), repeat=n):
        total = [0] * k
        for r in sub.left_coset_reps():
            val = [0] * k
            for (TH, h0), c in theta_of(sub, n, G.inv(r), T).items():
                add_moved(val, cls.module, h0, c, cls.cochain[col[TH] * k : (col[TH] + 1) * k])
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
        # d_H theta_p(g0 [T]) = theta_{p-1}(d_G(g0 [T])) for every g0 in G,
        # the right coset reps r among them
        _, c4_c2 = c4_c2_pair()
        _, s3_c3, s3_c2 = s3_subgroups()
        sub = {"C4 > C2": c4_c2, "S3 > C3": s3_c3, "S3 > C2": s3_c2}[which]
        G = sub.ambient
        bar_g, bar_h = BarResolution(G), BarResolution(sub.group)
        for p in range(1, 4):
            for g0 in G.elements():
                for T in itertools.product(G.elements(), repeat=p):
                    rhs = {}
                    for (T2, g2), c in bar_g.boundary_of_basis(T, g0).items():
                        for key, c2 in theta_of(sub, p - 1, g2, T2).items():
                            rhs[key] = rhs.get(key, 0) + c * c2
                    lhs = bar_h.boundary(theta_of(sub, p, g0, T))
                    assert lhs == {k: v for k, v in rhs.items() if v}

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(res_cores_cases()))
    def test_restriction(self, case, degree):
        sub, mod = res_cores_cases()[case]
        rng = random.Random(degree)
        for z in bar_cocycles(sub.ambient, mod, degree, rng):
            cls = cohomology(sub.ambient, mod, degree).classify(z)
            assert restriction(cls, sub).cochain == restricted_cochain(cls, sub)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(res_cores_cases()))
    def test_corestriction(self, case, degree):
        sub, mod = res_cores_cases()[case]
        mh = mod.restrict(sub)
        rng = random.Random(degree)
        for z in bar_cocycles(sub.group, mh, degree, rng):
            cls = cohomology(sub.group, mh, degree).classify(z)
            assert corestriction(sub, mod, cls).cochain == transferred_cochain(sub, mod, cls)


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
        with pytest.raises(NotExactError):
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
            eng, bar = cohomology(G, M, q), cohomology(G, M, q, resolution="bar")
            assert eng.res is free_resolution(G)
            assert eng.group.same_structure(bar.group)
            for cls in eng.generator_classes():
                assert eng.coords_of(eng.rep_of(cls.coords)) == cls.coords
            # the bar engine's generator classes generate the whole group
            images = [eng.coords_of(cls.cochain) for cls in bar.generator_classes()]
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
