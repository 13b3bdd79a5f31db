import random

import pytest
from hypothesis import given, settings, strategies as st

from torusbrauer.errors import CompositionNonzeroError
from torusbrauer.intlat import (
    FinAbGroup,
    IntMatrix,
    Subquotient,
    cokernel,
    invariant_factors,
    kernel_basis,
    smith,
    solve,
)


def small_matrices(max_dim=5, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(IntMatrix.from_rows)


def random_unimodular(n, rng, steps=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m)


class TestSmith:
    def test_coprime_diagonal(self):
        d = smith(IntMatrix.diagonal([3, 5])).diagonal()
        assert d == (1, 15)

    def test_hand_reduced(self):
        # [[2,4],[6,8]]: d1 = gcd of entries = 2, d1*d2 = |det| = 8
        d = smith(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal()
        assert d == (2, 4)

    def test_zero_matrix(self):
        s = smith(IntMatrix.zero(2, 2))
        assert s.D.is_zero()

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_reconstruction_and_chain(self, a):
        s = smith(a)
        assert s.U.mul(a).mul(s.V).entries == s.D.entries
        d = s.diagonal()
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        assert abs(s.U.det()) == 1
        assert abs(s.V.det()) == 1
        assert s.U.mul(s.u_inv).entries == IntMatrix.identity(a.rows).entries
        assert s.V.mul(s.v_inv).entries == IntMatrix.identity(a.cols).entries

    def test_deterministic(self):
        a = IntMatrix.from_rows([[4, 6, 2], [2, 8, 10]])
        assert smith(a) == smith(a)


class TestSolveKernel:
    def test_solve_integer(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert a.apply(solve(a, (4, 9))) == (4, 9)
        assert solve(a, (1, 0)) is None

    def test_solve_mod(self):
        a = IntMatrix.from_rows([[2]])
        assert solve(a, (3,), modulus=4) is None
        x = solve(a, (2,), modulus=4)
        assert (2 * x[0]) % 4 == 2

    def test_kernel_difference(self):
        assert kernel_basis(IntMatrix.from_rows([[1, -1]])) == [(1, 1)]

    def test_kernel_mod4(self):
        gens = kernel_basis(IntMatrix.from_rows([[2]]), modulus=4)
        assert (2,) in gens

    def test_kernel_rank_one(self):
        ker = kernel_basis(IntMatrix.from_rows([[1, 1], [1, 1]]))
        assert len(ker) == 1
        v = ker[0]
        assert v in [(1, -1), (-1, 1)]

    @settings(max_examples=100, deadline=None)
    @given(small_matrices())
    def test_kernel_annihilates(self, a):
        for v in kernel_basis(a):
            assert a.apply(v) == (0,) * a.rows
        for v in kernel_basis(a, modulus=6):
            assert all(x % 6 == 0 for x in a.apply(v))


class TestCokernel:
    def test_diag_2_3(self):
        g = cokernel(IntMatrix.diagonal([2, 3]))
        assert g.free_rank == 0 and g.torsion == (6,)

    def test_zero(self):
        g = cokernel(IntMatrix.zero(2, 2))
        assert g.free_rank == 2 and g.torsion == ()

    def test_2468(self):
        g = cokernel(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert g.torsion == (2, 4)

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        a = IntMatrix.from_rows([[2, 4, 0], [6, 8, 0], [0, 0, 5]])
        base = cokernel(a)
        for _ in range(10):
            p = random_unimodular(3, rng)
            q = random_unimodular(3, rng)
            g = cokernel(p.mul(a).mul(q))
            assert g.same_structure(base)

    def test_generator_orders(self):
        a = IntMatrix.diagonal([2, 4])
        sub = Subquotient(IntMatrix.zero(0, 2), a)
        g = sub.group
        assert g.torsion == (2, 4)
        for gen, t in zip(g.generators, g.torsion):
            # t*gen lands in the image, (t/p)*gen does not
            assert sub.project(tuple(t * x for x in gen)) == (0, 0)
            assert sub.project(gen) != (0, 0)


class TestHomologyOfPair:
    def test_free_ambient(self):
        h = Subquotient(IntMatrix.zero(0, 2), IntMatrix.zero(2, 0))
        assert h.group.free_rank == 2

    def test_injective_kernel(self):
        h = Subquotient(IntMatrix.from_rows([[2]]), IntMatrix.zero(1, 0))
        assert h.group.is_trivial()

    def test_c2_periodic_middle(self):
        # Z --0--> Z --2--> Z at the middle spot: ker(2)=0 over Z? No:
        # H^2(C2, Z): d_out = 0 (norm-after), middle complex Z --(x2)--> with
        # incoming multiplication by 0. ker(0)/im(2) = Z/2.
        h = Subquotient(IntMatrix.zero(1, 1), IntMatrix.from_rows([[2]]))
        assert h.group.torsion == (2,)

    def test_composition_nonzero_rejected(self):
        with pytest.raises(CompositionNonzeroError):
            Subquotient(
                IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])
            )

    def test_mod_n(self):
        # multiplication by 2 on Z/4: ker = {0,2}, im = {0,2}: H = 0
        two = IntMatrix.from_rows([[2]])
        h = Subquotient(two, two, modulus=4)
        assert h.group.is_trivial()

    def test_lift_project_roundtrip(self):
        rng = random.Random(3)
        d_in = IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]])
        d_out = IntMatrix.zero(0, 3)
        for modulus in (None, 12):
            h = Subquotient(d_out, d_in, modulus=modulus)
            k = len(h.group.torsion) + h.group.free_rank
            for _ in range(20):
                coords = tuple(rng.randrange(-5, 6) for _ in range(k))
                normalized = h.coords_mod(coords)
                assert h.project(h.lift(coords)) == normalized
            # project then lift re-represents the same class
            vec = (1, 3, 5)
            back = h.lift(h.project(vec))
            assert h.project(back) == h.project(vec)


class TestInvariantFactors:
    def test_basic(self):
        assert invariant_factors([2, 3]) == (6,)
        assert invariant_factors([2, 4]) == (2, 4)
        assert invariant_factors([1, 1]) == ()
        assert invariant_factors([12, 60]) == (12, 60)
        assert invariant_factors([2, 2, 3]) == (2, 6)

    def test_matches_cokernel(self):
        for orders in ([2, 4, 6], [3, 9], [2, 2, 2], [10, 4]):
            g = cokernel(IntMatrix.diagonal(orders))
            assert g.torsion == invariant_factors(orders)


def test_finabgroup_invariants():
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))
    g = FinAbGroup(1, (2, 4))
    assert g.order() is None
    assert FinAbGroup(0, (2, 4)).order() == 8
    assert str(FinAbGroup(0, ())) == "0"
