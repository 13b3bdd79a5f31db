import itertools
import math
import random
import time

import pytest

from tests import oracles
from tests.matrices import det, involution_types, ladder, random_unimodular
from torusbrauer.cohomology import cohomology
from torusbrauer.errors import ValidationError
from torusbrauer import groups, intlat
from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    GaloisDatum,
    c2_decompose,
    canonical_involution,
    involution_lattice,
    pair_module,
    permutation_lattice,
    subgroup_from_ids,
    subgroup_generated,
    tate_twist,
    unimodular_inverse,
    _verified,
)
from torusbrauer.intlat import IntMatrix


def swap_datum_qi():
    # Q(i)/Q norm-restriction torus: C2 swapping two characters, chi(s) = 3 mod 4
    return GaloisDatum.from_generators(2, 4, [((1, 0), 3)])


def s3_datum():
    return GaloisDatum.from_generators(
        3, 2, [((1, 0, 2), 1), ((0, 2, 1), 1)]
    )


def closure_by_full_passes(elements, mul, identity):
    """The reference closure: repeat full passes over all pairs, each b
    running over the elements listed when a's turn comes, until a pass lists
    nothing new; then multiply every pair again for the table."""
    elems = [identity]
    index = {identity: 0}
    for e in elements:
        if e not in index:
            index[e] = len(elems)
            elems.append(e)
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                c = mul(a, b)
                if c not in index:
                    index[c] = len(elems)
                    elems.append(c)
                    changed = True
    table = tuple(tuple(index[mul(a, b)] for b in elems) for a in elems)
    return table, elems


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(6)
        assert g.order == 6
        assert g.element_order(1) == 6
        assert g.generator_if_cyclic() is not None

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 17, 64])
    def test_cyclic_table_is_addition_mod_m(self, m):
        assert FiniteGroup.cyclic(m).table == tuple(
            tuple((i + j) % m for j in range(m)) for i in range(m)
        )

    def test_symmetric(self):
        s3, elems = FiniteGroup.symmetric(3)
        assert s3.order == 6
        assert s3.generator_if_cyclic() is None
        orders = sorted(s3.element_order(g) for g in s3.elements())
        assert orders == [1, 2, 2, 2, 3, 3]

    def test_direct_product(self):
        v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        assert v4.order == 4
        assert all(v4.element_order(g) <= 2 for g in v4.elements())

    def test_bad_table_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup(((0, 1), (1, 1)))

    def test_order_cap_checked_before_closure(self):
        # S8 has 40,320 elements: refused while its generators are listed,
        # before any closure pass over them
        t0 = time.perf_counter()
        with pytest.raises(ValidationError):
            FiniteGroup.symmetric(8)
        assert time.perf_counter() - t0 < 0.5

    def test_closure_order_matches_full_passes(self):
        # element ids index the action matrices of documents: any change of
        # order fails here
        rng = random.Random(31)
        for _ in range(60):
            r = rng.randrange(2, 6)
            M = rng.choice([2, 4, 6, 8, 12])
            units = [u for u in range(1, M) if math.gcd(u, M) == 1]
            perms = [tuple(rng.sample(range(r), r)) for _ in range(rng.randrange(0, 4))]
            pairs = [(p, rng.choice(units)) for p in perms]

            def compose(p, q):
                return tuple(p[i] for i in q)

            def galois_mul(x, y, M=M):
                return compose(x[0], y[0]), x[1] * y[1] % M

            for elements, mul, ident in (
                (perms, compose, tuple(range(r))),
                (pairs, galois_mul, (tuple(range(r)), 1 % M)),
            ):
                grp, elems = FiniteGroup.from_concrete(elements, mul, ident)
                assert (grp.table, elems) == closure_by_full_passes(elements, mul, ident)
        # the groups the CLI names
        for n in range(1, 6):
            ident = tuple(range(n))
            perms = [p for p in itertools.permutations(ident) if p != ident]
            grp, elems = FiniteGroup.symmetric(n)
            assert (grp.table, elems) == closure_by_full_passes(perms, compose, ident)
        c2 = FiniteGroup.cyclic(2)
        pairs = [(a, b) for a in range(2) for b in range(2)]
        table, _ = closure_by_full_passes(pairs, lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]), (0, 0))
        assert FiniteGroup.direct_product(c2, c2).table == table

    def test_from_generators_multiplies_by_generators_only(self, monkeypatch):
        # |S|·|G| concrete products, S the listed elements that earlier ones
        # do not generate, and the table reproduces every one of them
        products = []
        close = FiniteGroup.from_concrete

        def counting(elements, mul, identity):
            def counted(x, y):
                products.append((x, y, mul(x, y)))
                return products[-1][2]

            return close(elements, counted, identity)

        monkeypatch.setattr(FiniteGroup, "from_concrete", staticmethod(counting))
        rng = random.Random(32)
        for _ in range(60):
            r = rng.randrange(2, 7)
            M = rng.choice([2, 4, 6, 8, 12])
            units = [u for u in range(1, M) if math.gcd(u, M) == 1]
            pairs = [(tuple(rng.sample(range(r), r)), rng.choice(units))
                     for _ in range(rng.randrange(0, 4))]
            products.clear()
            d = GaloisDatum.from_generators(r, M, pairs)
            ident = (tuple(range(r)), 1 % M)

            def mul(x, y):
                return tuple(x[0][i] for i in y[0]), x[1] * y[1] % M

            S = []
            for p, u in pairs:
                reached, frontier = {ident}, [ident]
                while frontier:
                    x = frontier.pop()
                    for y in (mul(x, s) for s in S):
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
                if (p, u % M) not in reached:
                    S.append((p, u % M))
            assert len(products) <= len(S) * d.group.order
            assert len(S) <= max(d.group.order.bit_length() - 1, 0)
            index = {e: g for g, e in enumerate(zip(d.perm, d.chi))}
            for x, y, xy in products:
                assert d.group.mul(index[x], index[y]) == index[xy]

    def test_subgroups(self):
        s3, _ = FiniteGroup.symmetric(3)
        rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
        sub = subgroup_generated(s3, [rot])
        assert sub.group.order == 3
        assert sub.index == 2
        assert len(sub.left_coset_reps()) == 2


class TestGaloisDatum:
    def test_qi_datum(self):
        d = swap_datum_qi()
        assert d.group.order == 2
        assert d.chi[1] == 3

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValidationError):
            GaloisDatum.from_generators(2, 3, [((1, 0), 2)])

    def test_nonunit_rejected(self):
        with pytest.raises(ValidationError):
            GaloisDatum.from_generators(2, 4, [((1, 0), 2)])


class TestPermutationLattice:
    def test_trivial(self):
        d = GaloisDatum.from_generators(3, 2, [])
        lat = permutation_lattice(d)
        assert lat.rank == 3
        assert lat.action[0].entries == IntMatrix.identity(3).entries

    def test_swap(self):
        lat = permutation_lattice(swap_datum_qi())
        assert lat.action[1].entries == ((0, 1), (1, 0))

    def test_s3(self):
        lat = permutation_lattice(s3_datum())
        for g in lat.group.elements():
            m = lat.action[g]
            assert sorted(m.column(j) for j in range(3)) == [
                (0, 0, 1),
                (0, 1, 0),
                (1, 0, 0),
            ]


class TestTateTwist:
    def test_sign_twist_trivial_lattice(self):
        c2 = FiniteGroup.cyclic(2)
        lat = CoeffModule.trivial(c2, 1, None)
        tw = tate_twist(lat, (1, -1))
        assert tw.action[1].entries == ((-1,),)

    def test_ind_twist(self):
        lat = involution_lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
        tw = tate_twist(lat, (1, -1))
        assert tw.action[1].entries == ((0, -1), (-1, 0))

    def test_module_keeps_its_modulus(self):
        c2 = FiniteGroup.cyclic(2)
        assert tate_twist(CoeffModule.mu(c2, 4, (1, 1)), (1, -1)) == CoeffModule.mu(c2, 4, (1, -1))

    def test_non_sign_rejected(self):
        c2 = FiniteGroup.cyclic(2)
        lat = CoeffModule.trivial(c2, 1, None)
        with pytest.raises(ValidationError, match="^lattice twists need a sign-valued character$"):
            tate_twist(lat, (1, 3))


class TestDirectSum:
    def test_block_diagonal_over_z_mod_n(self):
        c2 = FiniteGroup.cyclic(2)
        swap = CoeffModule.make(c2, 2, 4, [IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])])
        total = CoeffModule.mu(c2, 4, (1, -1)).direct_sum(swap)
        assert (total.group, total.rank, total.modulus) == (c2, 3, 4)
        assert total.action[0] == IntMatrix.identity(3)
        assert total.action[1].entries == ((3, 0, 0), (0, 0, 1), (0, 1, 0))

    def test_common_group_required(self):
        one = CoeffModule.trivial(FiniteGroup.cyclic(2), 1, 4)
        other = CoeffModule.trivial(FiniteGroup.cyclic(3), 1, 4)
        with pytest.raises(ValidationError, match="^direct sum needs a common group$"):
            one.direct_sum(other)

    @pytest.mark.parametrize("modulus", [2, None])
    def test_common_modulus_required(self, modulus):
        c2 = FiniteGroup.cyclic(2)
        one = CoeffModule.trivial(c2, 1, 4)
        with pytest.raises(ValidationError, match="^direct sum needs a common modulus$"):
            one.direct_sum(CoeffModule.trivial(c2, 1, modulus))


class TestInvariants:
    """H^0(G, M) = M^G, read from the cohomology engine."""

    def test_trivial_action(self):
        c2 = FiniteGroup.cyclic(2)
        m = CoeffModule.trivial(c2, 1, 4)
        g = cohomology(c2, m, 0).group
        assert g.torsion == (4,)

    def test_negation_mod4(self):
        c2 = FiniteGroup.cyclic(2)
        m = CoeffModule.mu(c2, 4, (1, -1))
        g = cohomology(c2, m, 0).group
        assert g.torsion == (2,)
        assert g.generators[0] in ((2,),)

    def test_swap_mod2(self):
        c2 = FiniteGroup.cyclic(2)
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        m = CoeffModule.make(c2, 2, 2, [IntMatrix.identity(2), swap])
        g = cohomology(c2, m, 0).group
        assert g.torsion == (2,)
        assert g.generators[0] == (1, 1)


def exhaustive_c2_oracle(S):
    """Search small unimodular base changes for the canonical form (rank <= 2)."""
    n = S.rows
    from itertools import product

    for entries in product(range(-2, 3), repeat=n * n):
        B = IntMatrix.from_rows(
            [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        )
        if abs(det(B)) != 1:
            continue
        conj = B.mul(S).mul(unimodular_inverse(B))
        for a in range(n + 1):
            for b in range(n + 1 - a):
                if (n - a - b) % 2:
                    continue
                c = (n - a - b) // 2
                if conj.entries == canonical_involution(a, b, c).entries:
                    return a, b, c
    return None


class TestC2Decompose:
    def test_identity(self):
        d = c2_decompose(IntMatrix.identity(2))
        assert (d.a, d.b, d.c) == (2, 0, 0)

    def test_ind(self):
        d = c2_decompose(IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert (d.a, d.b, d.c) == (0, 0, 1)

    def test_skew_example_matches_exhaustive_oracle(self):
        S = IntMatrix.from_rows([[1, 2], [0, -1]])
        d = c2_decompose(S)
        assert d.a + d.b + 2 * d.c == 2
        conj = d.B.mul(S).mul(unimodular_inverse(d.B))
        assert conj.entries == d.canonical_matrix().entries
        assert exhaustive_c2_oracle(S) == (d.a, d.b, d.c)

    def test_not_involution(self):
        with pytest.raises(ValidationError, match="^matrix is not an involution$"):
            c2_decompose(IntMatrix.from_rows([[2]]))

    def test_random_conjugates(self):
        rng = random.Random(11)
        for a, b, c in [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2), (2, 1, 0)]:
            S0 = canonical_involution(a, b, c)
            for _ in range(8):
                P = random_unimodular(S0.rows, rng)
                S = P.mul(S0).mul(unimodular_inverse(P))
                d = c2_decompose(S)
                assert (d.a, d.b, d.c) == (a, b, c)
                conj = d.B.mul(S).mul(unimodular_inverse(d.B))
                assert conj.entries == d.canonical_matrix().entries
                # Lefschetz sanity: trace = a - b
                tr = sum(S.entries[i][i] for i in range(S.rows))
                assert tr == d.a - d.b

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ladder_conjugates(self, k):
        assert len(involution_types(3)) == 12
        for a, b, c in involution_types(3):
            S0 = canonical_involution(a, b, c)
            for transpose in (False, True):
                P = ladder(k, S0.rows, transpose)
                S = P.mul(S0).mul(unimodular_inverse(P))
                d = c2_decompose(S)
                assert (d.a, d.b, d.c) == (a, b, c)
                conj = d.B.mul(S).mul(unimodular_inverse(d.B))
                assert conj.entries == d.canonical_matrix().entries


# type (2, 2, 2) on the basis of random_unimodular(8, random.Random(18),
# steps=50): entries up to 157, far past those of the conjugates above
RANK_8_CONJUGATE = [
    [72, -22, 6, 5, -10, 21, -19, -8],
    [74, -29, 2, 4, 2, 28, -18, -6],
    [46, -16, 9, 8, 2, 12, -14, -6],
    [-54, 19, 2, -1, 4, -21, 12, 4],
    [47, -16, 0, 1, -5, 17, -11, -4],
    [-20, 2, 2, 2, 14, -5, 4, 2],
    [157, -43, 26, 17, -28, 36, -46, -22],
    [-39, 9, 0, 3, 18, -12, 9, 5],
]


def _split_agrees_with_oracle(S):
    d = c2_decompose(S)
    assert (d.a, d.b, d.c) == oracles.involution_type([list(row) for row in S.entries])
    assert d.B.mul(S).mul(unimodular_inverse(d.B)) == d.canonical_matrix()
    return d.a, d.b, d.c


class TestC2DecomposeAgainstOracle:
    """c2_decompose against the F_2-rank and trace of tests/oracles.py, for
    every type of rank 1-8."""

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_every_type(self, rank):
        rng = random.Random(rank)
        types = [ty for ty in involution_types(rank) if ty[0] + ty[1] + 2 * ty[2] == rank]
        for ty in types:
            S0 = canonical_involution(*ty)
            bases = [random_unimodular(rank, rng) for _ in range(3)]
            bases += [ladder(k, rank) for k in (1, 4)]
            assert _split_agrees_with_oracle(S0) == ty
            for P in bases:
                assert _split_agrees_with_oracle(P.mul(S0).mul(unimodular_inverse(P))) == ty

    def test_type_count(self):
        assert len(involution_types(8)) == 94

    def test_large_entry_rank_8_conjugate(self):
        S = IntMatrix.from_rows(RANK_8_CONJUGATE)
        assert S.mul(S) == IntMatrix.identity(8)
        assert _split_agrees_with_oracle(S) == (2, 2, 2)


def _conjugates(rank):
    """Every involution of each type of the given rank, canonical and on
    random and ladder bases."""
    rng = random.Random(rank)
    mats = [IntMatrix.from_rows(RANK_8_CONJUGATE)] if rank == 8 else []
    for ty in involution_types(rank):
        if ty[0] + ty[1] + 2 * ty[2] != rank:
            continue
        S0 = canonical_involution(*ty)
        mats.append(S0)
        bases = [random_unimodular(rank, rng) for _ in range(3)]
        bases += [ladder(k, rank, transpose) for k in (1, 4) for transpose in (False, True)]
        mats += [P.mul(S0).mul(unimodular_inverse(P)) for P in bases]
    return mats


class TestC2DecomposeCost:
    """c2_decompose runs two eliminations, of S + 1 and of the coupling
    matrix, and checks its basis P by S P = P C and |det P| = 1, without
    inverting it."""

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_two_eliminations(self, rank, monkeypatch):
        mats = _conjugates(rank)
        calls = []
        reduce = intlat._smith_reduce

        def counting(*args):
            calls.append(args[0].rows)
            return reduce(*args)

        # smith, kernel_basis and unimodular_inverse all reach intlat's name
        monkeypatch.setattr(intlat, "_smith_reduce", counting)
        monkeypatch.setattr(groups, "_smith_reduce", counting)
        for S in mats:
            calls.clear()
            c2_decompose(S)
            assert len(calls) == 2, S.entries

    @pytest.mark.parametrize("ty", [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 2, 1), (2, 2, 2)])
    def test_check_refuses_index_two_basis(self, ty):
        # doubling a column of a trivial or sign block keeps S P = P C, but P
        # spans a sublattice of index 2
        n = ty[0] + ty[1] + 2 * ty[2]
        P0 = ladder(3, n)
        S = P0.mul(canonical_involution(*ty)).mul(unimodular_inverse(P0))
        P = c2_decompose(S).P
        cols = [P.column(j) for j in range(n)]
        cols[0] = tuple(2 * x for x in cols[0])
        doubled = IntMatrix.from_columns(cols, nrows=n)
        assert S.mul(doubled) == doubled.mul(canonical_involution(*ty))
        assert abs(det(doubled)) == 2
        with pytest.raises(ValidationError, match="verification failed"):
            _verified(S, *ty, doubled)

    @pytest.mark.parametrize("ty, i, j", [((1, 1, 0), 0, 1), ((1, 0, 1), 0, 1), ((0, 1, 1), 0, 2)])
    def test_check_refuses_blocks_swapped(self, ty, i, j):
        n = ty[0] + ty[1] + 2 * ty[2]
        P0 = ladder(2, n, True)
        S = P0.mul(canonical_involution(*ty)).mul(unimodular_inverse(P0))
        P = c2_decompose(S).P
        cols = [P.column(k) for k in range(n)]
        cols[i], cols[j] = cols[j], cols[i]
        swapped = IntMatrix.from_columns(cols, nrows=n)
        assert abs(det(swapped)) == 1
        with pytest.raises(ValidationError, match="verification failed"):
            _verified(S, *ty, swapped)


class TestPairModule:
    def test_trivial_r3(self):
        d = GaloisDatum.from_generators(3, 2, [])
        m = pair_module(d, 2)
        assert m.rank == 3 and m.modulus == 2
        assert all(
            mat.entries == IntMatrix.identity(3).mod(2).entries for mat in m.action
        )

    def test_qi_action_is_trivial(self):
        m = pair_module(swap_datum_qi(), 4)
        assert m.rank == 1
        # s . e12 = -chi(s)^{-1} e12 = -3 = 1 mod 4
        assert m.action[1].entries == ((1,),)

    def test_s3_mod2_permutes_pairs(self):
        d = s3_datum()
        m = pair_module(d, 2)
        assert m.rank == 3
        for g in d.group.elements():
            mat = m.action[g]
            assert sorted(mat.column(j) for j in range(3)) == [
                (0, 0, 1),
                (0, 1, 0),
                (1, 0, 0),
            ]
