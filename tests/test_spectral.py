import dataclasses
import itertools
import json
import math
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tests import oracles
from tests.matrices import det, diagonal, ladder
from torusbrauer import cohomology as cohomology_module
from torusbrauer.cohomology import (
    bar_cohomology,
    coboundary,
    cohomology,
    free_resolution,
)
from torusbrauer.errors import ValidationError
from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    GaloisDatum,
    canonical_involution,
    involution_lattice,
    permutation_lattice,
    tate_twist,
    unimodular_inverse,
)
from torusbrauer import spectral
from torusbrauer.intlat import IntMatrix
from torusbrauer.spectral import (
    CochainComplex,
    SplitExtensionSpec,
    pushforward_formula_check,
    d2_02,
    d2_cocycles,
    e2_21,
    exterior_power,
    exterior_power_matrix,
    lattice_cohomology,
    real_torus_check,
    total_cohomology,
    total_delta_matrix,
    uct_identify,
    v2,
    twisted_resolution,
)


def d2_cocycle(ext, alpha):
    return d2_cocycles(ext, [alpha])[0]


def c2():
    return FiniteGroup.cyclic(2)


def fixed(module):
    """The fixed submodule H^0, with generators."""
    return cohomology(module.group, module, 0).group


def swap_lattice():
    g = c2()
    return CoeffModule(g, 2, None, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])))


def sign_lattice(a, b):
    """Z^a + Z(1)^b as a C2-lattice."""
    g = c2()
    d = diagonal([1] * a + [-1] * b)
    return CoeffModule(g, a + b, None, (IntMatrix.identity(a + b), d))


def c3_rotation():
    g = FiniteGroup.cyclic(3)
    rot = IntMatrix.from_rows([[0, -1], [1, -1]])
    return CoeffModule(g, 2, None, (IntMatrix.identity(2), rot, rot.mul(rot)))


def s3_perm_lattice():
    d = GaloisDatum.from_generators(3, 2, [((1, 0, 2), 1), ((0, 2, 1), 1)])
    return permutation_lattice(d)


def v4_lattice():
    g = FiniteGroup.direct_product(c2(), c2())
    # element order (0,0), (0,1), (1,0), (1,1)
    d = diagonal([1, 1, -1])
    p = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    return CoeffModule(g, 3, None, (IntMatrix.identity(3), d, p, p.mul(d)))


def direct_sum(l1: CoeffModule, l2: CoeffModule) -> CoeffModule:
    return l1.direct_sum(l2)


class TestSplitExtensionSpec:
    def test_pi_is_the_lattice_group(self):
        N = swap_lattice()
        ext = SplitExtensionSpec(N, CoeffModule.mu(N.group, 2, (1, 1)))
        assert [f.name for f in dataclasses.fields(ext)] == ["N", "M"]
        assert ext.pi is N.group

    def test_lattice_with_a_modulus_refused(self):
        g = c2()
        with pytest.raises(ValidationError, match="^the lattice of a split extension has no modulus$"):
            SplitExtensionSpec(CoeffModule.trivial(g, 2, 4), CoeffModule.trivial(g, 1, 4))

    def test_different_groups_refused(self):
        N = swap_lattice()
        M = CoeffModule.trivial(FiniteGroup.cyclic(3), 1, 4)
        with pytest.raises(ValidationError, match="^lattice and module live over different groups$"):
            SplitExtensionSpec(N, M)


class TestExteriorPower:
    def test_rank(self):
        a = IntMatrix.from_rows([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        m = exterior_power_matrix(a, 2)
        assert m.rows == m.cols == 3

    def test_determinant_top(self):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        top = exterior_power_matrix(a, 2)
        assert top.entries == ((det(a),),)

    def test_functorial(self):
        rng = random.Random(4)
        for _ in range(5):
            a = IntMatrix.from_rows(
                [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
            )
            b = IntMatrix.from_rows(
                [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
            )
            lhs = exterior_power_matrix(a.mul(b), 2)
            rhs = exterior_power_matrix(a, 2).mul(exterior_power_matrix(b, 2))
            assert lhs.entries == rhs.entries

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cauchy_binet_on_rectangular_maps(self, data):
        m, n = data.draw(st.sampled_from([(3, 2), (4, 3)]))
        k = data.draw(st.integers(1, 4))

        def matrix(rows, cols):
            row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
            return IntMatrix.from_rows(data.draw(st.lists(row, min_size=rows, max_size=rows)))

        a, b = matrix(m, n), matrix(n, k)
        lhs = exterior_power_matrix(a.mul(b), 2)
        assert (lhs.rows, lhs.cols) == (math.comb(m, 2), math.comb(k, 2))
        assert lhs == exterior_power_matrix(a, 2).mul(exterior_power_matrix(b, 2))

    @pytest.mark.parametrize("R, n, shift", [(5, 2, 0), (5, 2, 3), (5, 3, 1), (4, 1, 2), (3, 0, 3)])
    def test_coordinate_inclusion_selects_shifted_pairs(self, R, n, shift):
        J = IntMatrix.from_rows([[int(i == j + shift) for j in range(n)] for i in range(R)], ncols=n)
        cols = list(itertools.combinations(range(n), 2))
        want = [[int(S == (a + shift, b + shift)) for a, b in cols]
                for S in itertools.combinations(range(R), 2)]
        assert exterior_power_matrix(J, 2) == IntMatrix.from_rows(want, ncols=len(cols))

    def test_built_once_per_lattice_and_degree(self, monkeypatch):
        # d2 at three levels and v2 read Lambda^1 and Lambda^2 of each of
        # the six action matrices, each built once
        built = Counter()
        build = spectral.exterior_power_matrix

        def counted(A, q):
            built[q] += 1
            return build(A, q)

        monkeypatch.setattr(spectral, "exterior_power_matrix", counted)
        for memo in (exterior_power, lattice_cohomology, v2):
            memo.cache_clear()
        N = s3_perm_lattice()
        for n in (2, 3, 4):
            ext = SplitExtensionSpec(N, CoeffModule.mu(N.group, n, (1,) * 6))
            rep = d2_02(ext)
            pushforward_formula_check(ext, rep.source.generators, random.Random(n))
        assert built == {1: 6, 2: 6}


class TestLatticeCohomology:
    def test_trivial_rank3_q2(self):
        g = c2()
        n = CoeffModule.trivial(g, 3, None)
        m = CoeffModule.trivial(g, 1, 2)
        h = lattice_cohomology(n, m, 2)
        assert h.rank == 3 and h.modulus == 2

    def test_q0_is_m(self):
        g = c2()
        n = swap_lattice()
        m = CoeffModule.mu(g, 4, (1, 3))
        h = lattice_cohomology(n, m, 0)
        assert h.rank == 1
        assert h.action[1].entries == m.action[1].entries

    def test_q_beyond_rank(self):
        g = c2()
        h = lattice_cohomology(swap_lattice(), CoeffModule.trivial(g, 1, 2), 3)
        assert h.rank == 0


class TestH2Lattice:
    def test_rank1_zero(self):
        assert exterior_power(sign_lattice(1, 0), 2).rank == 0

    def test_rank2_trivial(self):
        h = exterior_power(sign_lattice(2, 0), 2)
        assert h.rank == 1 and h.modulus is None
        assert h.action[1].entries == ((1,),)

    def test_ind_sign_on_wedge(self):
        h = exterior_power(swap_lattice(), 2)
        assert h.action[1].entries == ((-1,),)


class TestUctIdentify:
    def ext_r2(self):
        g = FiniteGroup.trivial()
        n = CoeffModule.trivial(g, 2, None)
        m = CoeffModule.trivial(g, 1, 4)
        return SplitExtensionSpec(n, m)

    def test_zero(self):
        assert uct_identify(self.ext_r2(), (0,)).is_zero()

    def test_generator_is_evaluation(self):
        a = uct_identify(self.ext_r2(), (1,))
        assert a.entries == ((1,),)

    def test_not_invariant_rejected(self):
        n = swap_lattice()
        m = CoeffModule.trivial(n.group, 1, 4)
        ext = SplitExtensionSpec(n, m)
        # sigma acts by -1 on the wedge, so only 2-torsion vectors are fixed
        with pytest.raises(ValidationError, match="^class is not fixed by the group action$"):
            uct_identify(ext, (1,))

    def test_equivariance_s3(self):
        n = s3_perm_lattice()
        m = CoeffModule.trivial(n.group, 1, 2)
        ext = SplitExtensionSpec(n, m)
        a = uct_identify(ext, (1, 1, 1))
        for g in n.group.elements():
            lhs = a.mul(exterior_power_matrix(n.action[g], 2)).mod(2)
            rhs = m.action[g].mul(a).mod(2)
            assert lhs.entries == rhs.entries


class TestTwistedResolution:
    def test_trivial_pi_matches_lattice_cohomology(self):
        g = FiniteGroup.trivial()
        n = CoeffModule.trivial(g, 2, None)
        m = CoeffModule.trivial(g, 1, 4)
        ext = SplitExtensionSpec(n, m)
        assert twisted_resolution(n).verify_d_squared()
        for q in range(3):
            h = total_cohomology(ext, q)
            assert h.order() == 4 ** math.comb(2, q)

    def test_zero_lattice_matches_group_cohomology(self):
        s3, _ = FiniteGroup.symmetric(3)
        n = CoeffModule.trivial(s3, 0, None)
        m = CoeffModule.trivial(s3, 1, 2)
        ext = SplitExtensionSpec(n, m)
        assert twisted_resolution(n).verify_d_squared(3)
        for q in range(3):
            assert total_cohomology(ext, q).same_structure(cohomology(s3, m, q).group)

    def test_d_squared_exhaustive_ind(self):
        assert twisted_resolution(swap_lattice()).verify_d_squared()

    def test_d_squared_nonabelian(self):
        assert twisted_resolution(s3_perm_lattice()).verify_d_squared(3)

    def test_homotopy_identity_samples(self):
        n = c3_rotation()
        res = twisted_resolution(n)
        rng = random.Random(6)
        samples = []
        for p in range(3):
            for q in range(n.rank + 1):
                for _ in range(4):
                    B = (p, rng.randrange(res.rank(p, 0)))
                    S = tuple(sorted(rng.sample(range(n.rank), q)))
                    a = tuple(rng.randrange(-2, 3) for _ in range(n.rank))
                    u = rng.randrange(3)
                    samples.append(({(a, u, B, S): rng.randrange(1, 4)}, (p, q)))
        assert res.verify_homotopy_identity(samples)

    def test_known_group_dihedral_infinite(self):
        # Z x| C2 with inversion: H^* with integer coefficients is
        # Z, 0, (Z/2)^2 in degrees 0..2
        g = c2()
        n = CoeffModule(g, 1, None, (IntMatrix.identity(1), IntMatrix.from_rows([[-1]])))
        m = CoeffModule.trivial(g, 1, None)
        ext = SplitExtensionSpec(n, m)
        assert total_cohomology(ext, 0).free_rank == 1
        assert total_cohomology(ext, 1).is_trivial()
        assert total_cohomology(ext, 2).torsion == (2, 2)


def block_total_matrix(ext, n):
    """The total differential out of degree n, assembled block by block from
    the delta_matrix of each d_k, k >= 1, between the bidegrees."""
    res = twisted_resolution(ext.N)
    coch = CochainComplex(ext, res)
    r, k = ext.N.rank, ext.M.rank

    def offsets(m):
        out, acc = {}, 0
        for p in range(m + 1):
            if 0 <= m - p <= r:
                out[p, m - p] = acc
                acc += res.rank(p, m - p) * k
        return out, acc

    (src, ncols), (tgt, nrows) = offsets(n), offsets(n + 1)
    rows = [{} for _ in range(nrows)]
    for (pt, qt), ro in tgt.items():
        for j in range(1, pt + 1):
            co = src.get((pt - j, qt + j - 1))
            if co is None:
                continue
            for i, row in enumerate(coch.delta_matrix(j, pt - j, qt + j - 1).nonzeros):
                rows[ro + i].update((co + c, a) for c, a in row.items())
    return IntMatrix(tuple(rows), nrows, ncols)


class TestTotalMatrix:
    """total_delta_matrix against its blocks."""

    def test_criterion_7_data(self):
        triv = FiniteGroup.trivial()
        for r in range(1, 5):
            for n in (2, 3, 4):
                ext = SplitExtensionSpec(
                    CoeffModule.trivial(triv, r, None), CoeffModule.trivial(triv, 1, n)
                )
                for q in range(4):
                    assert total_delta_matrix(ext, q) == block_total_matrix(ext, q)

    @pytest.mark.parametrize("modulus", [4, None])
    def test_swap_lattice(self, modulus):
        N = swap_lattice()
        ext = SplitExtensionSpec(N, CoeffModule.trivial(N.group, 1, modulus))
        for q in range(4):
            assert total_delta_matrix(ext, q) == block_total_matrix(ext, q)


class TestD2:
    def test_trivial_pi_zero_map(self):
        g = FiniteGroup.trivial()
        n = CoeffModule.trivial(g, 3, None)
        m = CoeffModule.trivial(g, 1, 2)
        rep = d2_02(SplitExtensionSpec(n, m))
        assert rep.is_zero()

    @pytest.mark.parametrize("modulus", [2, 4])
    def test_c2_always_zero(self, modulus):
        for n in [swap_lattice(), sign_lattice(1, 1), direct_sum(swap_lattice(), sign_lattice(1, 0))]:
            m = CoeffModule.mu(n.group, modulus, (1, -1))
            rep = d2_02(SplitExtensionSpec(n, m))
            assert rep.is_zero()

    def test_additive_in_alpha(self):
        n = s3_perm_lattice()
        m = CoeffModule.trivial(n.group, 1, 2)
        ext = SplitExtensionSpec(n, m)
        inv = fixed(lattice_cohomology(n, m, 2))
        eng = e2_21(ext)
        for g1 in inv.generators:
            for g2 in inv.generators:
                s = tuple((a + b) % 2 for a, b in zip(g1, g2))
                lhs = e2_21(ext).coords_of(d2_cocycle(ext, s))
                rhs = eng.sub.coords_mod(
                    tuple(
                        a + b
                        for a, b in zip(e2_21(ext).coords_of(d2_cocycle(ext, g1)),
                                        e2_21(ext).coords_of(d2_cocycle(ext, g2)))
                    )
                )
                assert lhs == rhs

    def test_coboundary_independence(self):
        n = c3_rotation()
        m = CoeffModule.trivial(n.group, 1, 3)
        ext = SplitExtensionSpec(n, m)
        inv = fixed(lattice_cohomology(n, m, 2))
        res = twisted_resolution(n)
        coch = CochainComplex(ext, res)
        d_in = coch.delta_matrix(1, 1, 1)
        rng = random.Random(12)
        for gen in inv.generators:
            base = d2_cocycle(ext, gen)
            coords = e2_21(ext).coords_of(base)
            for _ in range(5):
                pert = tuple(rng.randrange(3) for _ in range(d_in.cols))
                shifted = tuple(a + b for a, b in zip(base, d_in.apply(pert)))
                assert e2_21(ext).coords_of(shifted) == coords

    def test_naturality_in_m(self):
        # reduction mu_4 -> mu_2 commutes with d2
        n = c3_rotation()
        g = n.group
        m6 = CoeffModule.trivial(g, 1, 6)
        m3 = CoeffModule.trivial(g, 1, 3)
        ext6 = SplitExtensionSpec(n, m6)
        ext3 = SplitExtensionSpec(n, m3)
        inv = fixed(lattice_cohomology(n, m6, 2))
        for gen in inv.generators:
            pushed_alpha = tuple(x % 3 for x in gen)
            lhs = e2_21(ext3).coords_of(d2_cocycle(ext3, pushed_alpha))
            pushed_cocycle = tuple(x % 3 for x in d2_cocycle(ext6, gen))
            rhs = e2_21(ext3).coords_of(pushed_cocycle)
            assert lhs == rhs


class TestV2:
    def test_rank1_zero(self):
        # Lambda^2 N = 0: the general path gives an empty cocycle
        for n in (sign_lattice(1, 0), sign_lattice(0, 1)):
            cls = v2(n)
            assert cls.cocycle == () and cls.coords() == ()
            assert cls.is_zero()

    def test_ind_zero(self):
        assert v2(swap_lattice()).is_zero()

    def test_c2_sweep_zero(self):
        lattices = [
            sign_lattice(2, 0),
            sign_lattice(1, 1),
            sign_lattice(0, 2),
            direct_sum(swap_lattice(), sign_lattice(1, 0)),
            direct_sum(swap_lattice(), swap_lattice()),
        ]
        for n in lattices:
            assert v2(n).is_zero()

    def test_c3_rotation(self):
        # the target group H^2(C3, dual rotation module) is trivial
        vc = v2(c3_rotation())
        assert vc.is_zero()

    def test_additivity_block_decomposition(self):
        # the component of v2(N1 + N2) on the Hom(N1, wedge^2 N1) block is
        # the cocycle of v2(N1), up to coboundaries in the small complex
        pairs = [
            (swap_lattice(), sign_lattice(1, 1)),
            (c3_rotation(), CoeffModule.trivial(FiniteGroup.cyclic(3), 1, None)),
        ]
        for n1, n2 in pairs:
            big = direct_sum(n1, n2)
            vbig = v2(big)
            vsmall = v2(n1)
            if n1.rank < 2:
                continue
            pi = n1.group
            r1, R = n1.rank, big.rank
            subs_big = list(itertools.combinations(range(R), 2))
            subs_small = list(itertools.combinations(range(r1), 2))
            nb, ns = len(subs_big), len(subs_small)
            sel = []
            for b in range(free_resolution(pi).rank(2)):
                for i in range(r1):
                    base = (b * R + i) * nb
                    for s in subs_small:
                        sel.append(vbig.cocycle[base + subs_big.index(s)])
            assert e2_21(vsmall.ext_univ).coords_of(tuple(sel)) == vsmall.coords()


def matrix_group_lattice(gens):
    """The lattice Z^n of the integer matrix group generated by gens."""
    n = len(gens[0])

    def mul(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)

    G, elems = FiniteGroup.from_concrete(gens, mul, IntMatrix.identity(n).entries)
    return CoeffModule(G, n, None, tuple(map(IntMatrix.from_rows, elems)))


class TestV2RankTwo:
    """D4 on the square lattice and D6 on the hexagonal one are the two
    maximal finite subgroups of GL_2(Z) up to conjugacy.  v2 vanishes on
    both, so by its naturality (restriction, inflation, change of basis) it
    vanishes on every rank-2 lattice, and with it d2 out of (0, 2)."""

    @pytest.mark.parametrize("name, gens, order, target", [
        ("D4 square", [((0, -1), (1, 0)), ((1, 0), (0, -1))], 8, "Z/2"),
        ("D6 hexagonal", [((1, -1), (1, 0)), ((0, 1), (1, 0))], 12, "0"),
    ])
    def test_maximal_group_v2_zero(self, name, gens, order, target):
        N = matrix_group_lattice(gens)
        assert N.group.order == order
        vc = v2(N)
        assert e2_21(vc.ext_univ).group.describe() == target
        assert vc.is_zero()


class TestPushforwardFormula:
    def test_rank1_draws_nothing(self):
        # Lambda^2 N = 0: the coboundary that perturbs v2 is empty
        n = sign_lattice(0, 1)
        ext = SplitExtensionSpec(n, CoeffModule.mu(n.group, 4, (1, 3)))
        rng = random.Random(0)
        state = rng.getstate()
        inv = fixed(lattice_cohomology(n, ext.M, 2))
        assert pushforward_formula_check(ext, inv.generators, rng=rng) == []
        # the zero alpha, the one element of Hom(Lambda^2 N, M) = 0
        assert pushforward_formula_check(ext, [()], rng=rng) == [True]
        assert rng.getstate() == state

    def test_zero_alpha(self):
        n = swap_lattice()
        m = CoeffModule.mu(n.group, 2, (1, 1))
        ext = SplitExtensionSpec(n, m)
        assert pushforward_formula_check(ext, [(0,) * math.comb(n.rank, 2)], rng=random.Random(0)) == [True]

    def test_c2_random_lattices(self):
        rng = random.Random(21)
        for _ in range(6):
            base = [sign_lattice(1, 0), sign_lattice(0, 1), swap_lattice()]
            n = rng.choice(base)
            while n.rank < 2 or (n.rank < 3 and rng.random() < 0.7):
                n = direct_sum(n, rng.choice(base))
                if n.rank > 3:
                    break
            if n.rank > 3:
                continue
            m = CoeffModule.mu(n.group, 2, (1, 1))
            ext = SplitExtensionSpec(n, m)
            inv = fixed(lattice_cohomology(n, m, 2))
            assert all(pushforward_formula_check(ext, inv.generators, rng=rng))

    def test_s3_permutation_mod2(self):
        n = s3_perm_lattice()
        m = CoeffModule.trivial(n.group, 1, 2)
        ext = SplitExtensionSpec(n, m)
        inv = fixed(lattice_cohomology(n, m, 2))
        rng = random.Random(3)
        assert len(inv.generators) >= 1
        assert pushforward_formula_check(ext, inv.generators, rng=rng) == [True] * len(inv.generators)

    def test_c3_mod3(self):
        n = c3_rotation()
        m = CoeffModule.trivial(n.group, 1, 3)
        ext = SplitExtensionSpec(n, m)
        inv = fixed(lattice_cohomology(n, m, 2))
        rng = random.Random(8)
        assert all(pushforward_formula_check(ext, inv.generators, rng=rng))


class TestRealTorus:
    def test_rank1(self):
        rep = real_torus_check(IntMatrix.identity(1), (4,))
        (lv,) = rep.levels
        assert lv.n == 4 and lv.d2_is_zero and lv.invariants.is_trivial()
        assert rep.decomposition == (1, 0, 0)

    def test_weil_restriction(self):
        rep = real_torus_check(IntMatrix.from_rows([[0, 1], [1, 0]]), (4, 2, 3))
        assert [lv.n for lv in rep.levels] == [4, 2, 3]
        assert all(lv.d2_is_zero for lv in rep.levels)
        assert rep.decomposition == (0, 0, 1)

    def test_mixed_rank2(self):
        rep = real_torus_check(IntMatrix.from_rows([[1, 0], [0, -1]]), (4,))
        assert rep.levels[0].d2_is_zero
        assert rep.decomposition == (1, 1, 0)
        assert rep.levels[0].invariants.order() is not None

    def test_not_involution(self):
        with pytest.raises(ValidationError, match="^matrix is not an involution$"):
            real_torus_check(IntMatrix.from_rows([[2]]), (2,))


def real_d2(S, n):
    """d2 on the sign-twisted involution lattice of S with coefficients mu_n."""
    N = tate_twist(involution_lattice(S), (1, -1))
    return d2_02(SplitExtensionSpec(N, CoeffModule.mu(N.group, n, (1, -1))))


class TestBasisChangeInvariance:
    """real_torus_check computes d2 on the canonical form of the involution;
    on the input basis the homotopy works on larger entries but must give an
    isomorphic source and target and the same verdict."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "ty", [(1, 1, 0), (0, 0, 1), (2, 1, 0), (1, 2, 0), (1, 0, 1), (0, 1, 1)], ids=str
    )
    def test_ladder_conjugates(self, ty, n):
        a, b, c = ty
        S0 = canonical_involution(a, b, c)
        ref = real_d2(S0, n)
        for k in (1, 2):
            for transpose in (False, True):
                P = ladder(k, S0.rows, transpose)
                rep = real_d2(P.mul(S0).mul(unimodular_inverse(P)), n)
                assert rep.source.same_structure(ref.source)
                assert rep.target.same_structure(ref.target)
                assert rep.is_zero() == ref.is_zero()


def criterion6_lattices():
    """The C2, C3 and V4 lattices of acceptance criterion 6."""
    swap, g3 = swap_lattice(), FiniteGroup.cyclic(3)
    i3 = IntMatrix.identity(3)
    rot = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    # V4 elements are (0,0), (0,1), (1,0), (1,1): (1, *) swaps e_0 and e_1,
    # and the sign character is -1 on (*, 1)
    sw = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    perm_v4 = CoeffModule(FiniteGroup.direct_product(c2(), c2()), 3, None, (i3, i3, sw, sw))
    return {
        "C2 swap": swap,
        "C2 swap (x) sign": tate_twist(swap, (1, -1)),
        "C2 swap + 1": direct_sum(swap, CoeffModule.trivial(c2(), 1, None)),
        "C3 permutation": CoeffModule(g3, 3, None, (i3, rot, rot.mul(rot))),
        "V4 permutation": perm_v4,
        "V4 permutation (x) sign": tate_twist(perm_v4, (1, -1, 1, -1)),
    }


class TestV2BasisChange:
    """v2(N) lies in H^2(pi, Hom(N, Lambda^2 N)); a change of lattice basis
    is an isomorphism of these coefficients, so it keeps the structure of
    E2^{2,1}, whether v2 vanishes and the order of its class."""

    @pytest.mark.parametrize("name", sorted(criterion6_lattices()))
    def test_ladder_conjugates(self, name):
        N = criterion6_lattices()[name]
        ref = v2(N)
        ref_group = e2_21(ref.ext_univ).group
        for k in (1, 2):
            for transpose in (False, True):
                P = ladder(k, N.rank, transpose)
                Q = unimodular_inverse(P)
                cls = v2(CoeffModule(N.group, N.rank, None, tuple(P.mul(m).mul(Q) for m in N.action)))
                group = e2_21(cls.ext_univ).group
                assert group.same_structure(ref_group)
                assert cls.is_zero() == ref.is_zero()
                assert class_order(group, cls.coords()) == class_order(ref_group, ref.coords())


class TestZeroFreeChains:
    """No chain of the twisted resolution holds a zero coefficient: chains
    are summed by intlat's _axpy and _add_entry, which store none, and
    _left_mul copies terms one for one."""

    @pytest.mark.parametrize("name", sorted(criterion6_lattices()) + ["S3 permutation"])
    def test_every_chain_of_the_resolution(self, name, monkeypatch):
        N = {**criterion6_lattices(), "S3 permutation": s3_perm_lattice()}[name]
        chains = []

        def recorded(method):
            def wrapper(self, *args):
                chains.append(method(self, *args))
                return chains[-1]
            return wrapper

        for method in ("d_basis", "d_elem", "homotopy", "_left_mul"):
            monkeypatch.setattr(spectral.TwistedResolution, method,
                                recorded(getattr(spectral.TwistedResolution, method)))
        assert spectral.TwistedResolution(N).verify_d_squared(3)
        assert chains and all(all(chain.values()) for chain in chains)


class TestLatticeWithAModulus:
    """The lattice entry points refuse a module with a modulus."""

    def test_exterior_power(self):
        with pytest.raises(ValidationError, match="^a lattice has no modulus$"):
            exterior_power(CoeffModule.mu(c2(), 4, (1, 3)), 1)

    def test_lattice_cohomology(self):
        with pytest.raises(ValidationError, match="^a lattice has no modulus$"):
            lattice_cohomology(CoeffModule.trivial(c2(), 2, 2), CoeffModule.mu(c2(), 4, (1, 1)), 1)

    def test_twisted_resolution(self):
        with pytest.raises(ValidationError, match="^a lattice has no modulus$"):
            twisted_resolution(CoeffModule.trivial(c2(), 2, 2))

    def test_v2(self):
        with pytest.raises(ValidationError, match="^a lattice has no modulus$"):
            v2(CoeffModule.trivial(c2(), 2, 2))


# lattice and level of each case; coefficients are Z/n with trivial action
ENGINE_CASES = {
    "C2 swap mu_4": (swap_lattice, 4),
    "C2 swap + 1 mu_4": (lambda: direct_sum(swap_lattice(), sign_lattice(1, 0)), 4),
    "C3 rotation mu_3": (c3_rotation, 3),
    "V4 mu_2": (v4_lattice, 2),
    "S3 permutation mu_2": (s3_perm_lattice, 2),
}


def engine_case(name):
    lattice, n = ENGINE_CASES[name]
    N = lattice()
    return SplitExtensionSpec(N, CoeffModule.trivial(N.group, 1, n))


def class_order(group, coords):
    return math.lcm(*(t // math.gcd(c, t) for c, t in zip(coords, group.torsion)))


class TestOneEngine:
    """E2^{2,1} is group cohomology with coefficients in Hom(N, M)."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("coefficients", ["own", "universal"])
    @pytest.mark.parametrize(
        "case", ["C2 swap mu_4", "C3 rotation mu_3", "V4 mu_2", "S3 permutation mu_2"]
    )
    def test_row_is_the_coboundary(self, case, coefficients, p):
        # the row q = 1 of the twisted resolution is the coboundary of
        # E2^{2,1}'s engine on its resolution F; on the universal
        # coefficients Hom(N, Lambda^2 N) at p = 1 it is the matrix the
        # pushforward check perturbs by
        ext = engine_case(case)
        if coefficients == "universal":
            ext = v2(ext.N).ext_univ
        row = CochainComplex(ext, twisted_resolution(ext.N)).delta_matrix(1, p, 1)
        assert free_resolution(ext.pi) is e2_21(ext).res
        assert row == coboundary(ext.pi, lattice_cohomology(ext.N, ext.M, 1), p)

    @pytest.mark.parametrize("case", ["C2 swap mu_4", "C2 swap + 1 mu_4", "C3 rotation mu_3"])
    def test_periodic_engine_agrees_with_bar(self, case):
        ext = engine_case(case)
        per = e2_21(ext)
        bar = bar_cohomology(ext.pi, per.M, 2)
        assert per.res is free_resolution(ext.pi)
        assert per.group.same_structure(bar.group)
        inv = fixed(lattice_cohomology(ext.N, ext.M, 2))
        G, k = ext.pi, per.M.rank
        actions = [a.entries for a in per.M.action]
        # a row cocycle lives on F; the bar complex reads it through the
        # periodic tau written out in tests/oracles.py
        for cocycle in d2_cocycles(ext, inv.generators):
            on_bar = oracles.periodic_tau_star(G.table, G.generator_if_cyclic(), actions, cocycle,
                                               per.M.modulus, 2)
            assert (not any(per.coords_of(cocycle))) == (not any(bar.project(on_bar)))
        # the two coordinate systems differ by an isomorphism: sigma takes
        # each bar generator to a class of its order
        for z, t in zip(bar.group.generators, bar.group.torsion):
            on_f = oracles.periodic_sigma_star(G.table, G.generator_if_cyclic(), z, k, 2)
            assert class_order(per.group, per.coords_of(on_f)) == t


def noncyclic_lattices():
    """The V4 and S3 lattices of acceptance criterion 6, each with mu_4 and
    its sign character."""
    lattices = {name: N for name, N in criterion6_lattices().items() if name.startswith("V4")}
    s3 = s3_perm_lattice()
    parity = tuple(det(m) for m in s3.action)
    lattices["S3 permutation"] = s3
    lattices["S3 permutation (x) sign"] = tate_twist(s3, parity)
    chi = {"V4": (1, -1, 1, -1), "S3": parity}
    return {name: SplitExtensionSpec(N, CoeffModule.mu(N.group, 4, chi[name[:2]]))
            for name, N in lattices.items()}


class TestE21OffTheBarComplex:
    """E2^{2,1} of a non-cyclic pi is computed on the small resolution F:
    its cochain matrix out of degree 2 has rank(F_3) * k rows, not the
    |pi|^3 * k of the bar complex, and no bar coboundary is built."""

    @pytest.mark.parametrize("name", sorted(noncyclic_lattices()))
    def test_e2_21_runs_on_the_small_resolution(self, name, monkeypatch):
        ext = noncyclic_lattices()[name]
        rows, real = [], cohomology_module.Subquotient

        def spy(d_out, d_in, modulus=None):
            rows.append(d_out.rows)
            return real(d_out, d_in, modulus)

        def no_bar(*args):
            raise AssertionError("E2^{2,1} built a bar coboundary")

        monkeypatch.setattr(cohomology_module, "Subquotient", spy)
        monkeypatch.setattr(cohomology_module, "bar_delta_matrix", no_bar)
        cohomology.cache_clear()
        eng = e2_21(ext)
        F, k = free_resolution(ext.pi), eng.M.rank
        assert eng.res is F
        assert rows == [F.rank(3) * k]
        assert F.rank(3) * k < ext.pi.order**3 * k


class TestValueSemantics:
    def test_equal_lattices_share_one_twisted_resolution(self):
        # the action matrix built from rows, from its columns and as a
        # product: three equal lattices, one cache entry
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        forms = (
            swap,
            IntMatrix.from_columns([swap.column(j) for j in range(2)], nrows=2),
            IntMatrix.identity(2).mul(swap),
        )
        lattices = [CoeffModule(c2(), 2, None, (IntMatrix.identity(2), m)) for m in forms]
        assert len({hash(N) for N in lattices}) == 1
        twisted_resolution.cache_clear()
        first = twisted_resolution(lattices[0])
        assert all(twisted_resolution(N) is first for N in lattices[1:])
        info = twisted_resolution.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def reference_d2_cocycle(ext, alpha):
    """f . d_2 evaluated term by term: at each basis element (B, {i}) of
    bidegree (2,1), in order, the sum over the terms c * x^a u [(0, 0); S]
    of d_2(B, {i}) of c * u . alpha(e_S), reduced mod the modulus of M."""
    res = twisted_resolution(ext.N)
    k, r = ext.M.rank, ext.N.rank
    pairs = list(itertools.combinations(range(r), 2))
    alpha = ext.M.reduce(alpha)
    out = []
    for B, S in res.basis(2, 1):
        val = [0] * k
        for (_, u, B2, S2), c in res.d_basis(2, B, S).items():
            assert B2 == (0, 0)
            base = pairs.index(S2) * k
            for j, x in enumerate(ext.M.act(u, alpha[base : base + k])):
                val[j] += c * x
        out.extend(ext.M.reduce(val))
    return tuple(out)


def identity_alpha(N):
    """The identity of Hom(Lambda^2 N, Lambda^2 N), flattened as v2 reads it."""
    nsub = math.comb(N.rank, 2)
    return tuple(int(a == b) for a in range(nsub) for b in range(nsub))


def example_extensions():
    from torusbrauer.cli import parse_split_extension

    root = pathlib.Path(__file__).resolve().parent.parent / "examples_cli"
    return {
        path.name: parse_split_extension(json.loads(path.read_text()))
        for path in sorted(root.glob("*_extension.json"))
    }


def ladder_conjugates(N):
    """N on the bases of the ladder matrices, where d_2 has terms."""
    for k in (1, 2):
        for transpose in (False, True):
            P = ladder(k, N.rank, transpose)
            Q = unimodular_inverse(P)
            yield CoeffModule(N.group, N.rank, None, tuple(P.mul(m).mul(Q) for m in N.action))


class TestD2Reference:
    """The d2 cocycles and v2 against the term-by-term reference.  On the
    canonical bases below d_2 has no terms at (2,1), so the ladder
    conjugates carry the nonzero cocycles."""

    def check(self, ext):
        """The number of nonzero cocycles compared."""
        inv = fixed(lattice_cohomology(ext.N, ext.M, 2))
        cocycles = d2_cocycles(ext, inv.generators)
        assert cocycles == tuple(reference_d2_cocycle(ext, gen) for gen in inv.generators)
        if ext.N.rank >= 2:
            vcl = v2(ext.N)
            assert vcl.cocycle == reference_d2_cocycle(vcl.ext_univ, identity_alpha(ext.N))
            cocycles += (vcl.cocycle,)
        return sum(map(any, cocycles))

    def test_criterion_6_lattices_and_levels(self):
        from tests.test_acceptance import _cv_lattices

        for _, lat, mods in _cv_lattices():
            for m in mods:
                self.check(SplitExtensionSpec(lat, m))

    @pytest.mark.parametrize("name", sorted(criterion6_lattices()))
    def test_ladder_conjugates(self, name):
        nonzero = 0
        for N in ladder_conjugates(criterion6_lattices()[name]):
            for n in (2, 3, 4):
                nonzero += self.check(SplitExtensionSpec(N, CoeffModule.trivial(N.group, 1, n)))
        assert nonzero > 0

    @pytest.mark.parametrize("ty", [(1, 1, 0), (0, 1, 1), (1, 1, 1)], ids=str)
    def test_real_torus_ladder_conjugates(self, ty):
        # mu_n with the involution acting by -1
        S0 = canonical_involution(*ty)
        nonzero = 0
        for n in (2, 4):
            for k in (1, 2):
                P = ladder(k, S0.rows)
                N = tate_twist(involution_lattice(P.mul(S0).mul(unimodular_inverse(P))), (1, -1))
                nonzero += self.check(SplitExtensionSpec(N, CoeffModule.mu(N.group, n, (1, -1))))
        assert nonzero > 0

    @pytest.mark.parametrize("name", sorted(example_extensions()))
    def test_examples_cli_extensions(self, name):
        self.check(example_extensions()[name])


def s4_perm_lattice():
    """S4 permuting the basis of Z^4."""
    G, perms = FiniteGroup.symmetric(4)
    mats = [[[int(p[j] == i) for j in range(4)] for i in range(4)] for p in perms]
    return CoeffModule(G, 4, None, tuple(map(IntMatrix.from_rows, mats)))


def witness_extensions():
    """The V4 and C4 witnesses of examples_cli, whose d2 and v2 are nonzero."""
    ext = example_extensions()
    return {"V4 witness": ext["v4_fcc_extension.json"], "C4 witness": ext["c4_extension.json"]}


def resolution_lattices():
    """The criterion-6 lattices, the witnesses and the S3 and S4 permutation
    lattices."""
    return {**criterion6_lattices(), **{name: ext.N for name, ext in witness_extensions().items()},
            "S3 permutation": s3_perm_lattice(), "S4 permutation": s4_perm_lattice()}


class TestTwistedResolutionOffTheBarComplex:
    """The twisted resolution is built on the resolution F of pi that
    E2^{2,1}'s engine uses: W_{p,q} has rank(F_p) * C(r, q) basis elements,
    not |pi|^p * C(r, q), and d2 and v2 read no bar face."""

    @pytest.mark.parametrize("name", sorted(resolution_lattices()))
    def test_d_squared_and_homotopy_identity(self, name):
        N = resolution_lattices()[name]
        res = twisted_resolution(N)
        assert res.F is free_resolution(N.group)
        assert res.verify_d_squared()  # up to total degree 4
        rng = random.Random(name)
        samples = []
        for p in range(4):
            for q in range(N.rank + 1):
                for _ in range(2):
                    B = (p, rng.randrange(res.rank(p, 0)))
                    S = tuple(sorted(rng.sample(range(N.rank), q)))
                    a = tuple(rng.randrange(-2, 3) for _ in range(N.rank))
                    u = rng.randrange(N.group.order)
                    samples.append(({(a, u, B, S): rng.randrange(1, 4)}, (p, q)))
        assert res.verify_homotopy_identity(samples)

    @pytest.mark.parametrize("name", ["C2 swap", "V4 witness", "S3 permutation", "S4 permutation"])
    def test_d2_matrix_has_rank_F2_rows(self, name):
        N = resolution_lattices()[name]
        ext = SplitExtensionSpec(N, CoeffModule.mu(N.group, 4, (1,) * N.group.order))
        d2 = CochainComplex(ext, twisted_resolution(N)).delta_matrix(2, 0, 2)
        F, r, k = free_resolution(ext.pi), N.rank, ext.M.rank
        assert d2.rows == F.rank(2) * r * k
        assert d2.rows < ext.pi.order**2 * r * k

    @pytest.mark.parametrize("name", ["C2 swap mu_4", "V4 witness", "S3 permutation mu_2"])
    def test_d2_and_v2_read_no_bar_face(self, name, monkeypatch):
        nonzero = name == "V4 witness"
        ext = witness_extensions()[name] if nonzero else engine_case(name)
        cohomology.cache_clear()

        def no_bar(*args):
            raise AssertionError("d2 or v2 read the bar resolution")

        monkeypatch.setattr(cohomology_module.BarResolution, "boundary_of_basis", no_bar)
        monkeypatch.setattr(cohomology_module, "bar_delta_matrix", no_bar)
        twisted_resolution.cache_clear()
        v2.cache_clear()
        # the source, H^0, is on F like every other degree, so it is read
        # under the guard too
        inv = fixed(lattice_cohomology(ext.N, ext.M, 2))
        assert d2_02(ext).is_zero() != nonzero
        verdicts = pushforward_formula_check(ext, inv.generators, random.Random(0))
        assert verdicts == [True] * len(inv.generators)
        assert v2(ext.N).is_zero() != nonzero
