import itertools
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tests import oracles
from tests.matrices import det, diagonal, entry, hstack
from torusbrauer.errors import ValidationError
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
        d = smith(diagonal([3, 5])).diagonal()
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
        assert abs(det(s.U)) == 1
        assert abs(det(s.V)) == 1
        assert s.U.mul(s.u_inv).entries == IntMatrix.identity(a.rows).entries
        assert s.V.mul(s.v_inv).entries == IntMatrix.identity(a.cols).entries

    def test_deterministic(self):
        a = IntMatrix.from_rows([[4, 6, 2], [2, 8, 10]])
        assert smith(a) == smith(a)


def _entries(m):
    return [a for row in m.entries for a in row]


def _span_mod(gens, n, dim):
    """The subgroup of (Z/n)^dim generated by gens, by closure."""
    span, frontier = {(0,) * dim}, [(0,) * dim]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % n for a, b in zip(v, g))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def _kernel_from_snf(A, s, n=None):
    """The kernel read from a full smith(A, n): over Z the columns of V with
    d_j = 0, over Z/n every column of V scaled by n/gcd(d_j, n) unless that
    makes it 0 mod n."""
    d = s.diagonal()
    out = []
    for j in range(A.cols):
        dj, col = (d[j] if j < len(d) else 0), s.V.column(j)
        if n is None:
            if dj == 0:
                out.append(tuple(col))
        elif (scale := n // gcd(dj, n)) != n:
            out.append(tuple(scale * a % n for a in col))
    return out


def _integral_kernel_mod(A, n):
    """Generators of {x : A x = 0 mod n} from integral Smith: the columns of
    V scaled by n/gcd(d_j, n)."""
    s = smith(A)
    d = s.diagonal()
    scales = [n // gcd(d[j] if j < len(d) else 0, n) for j in range(A.cols)]
    return [
        tuple(scale * a % n for a in s.V.column(j))
        for j, scale in enumerate(scales)
        if scale != n
    ]


def _reference_subquotient(d_out, d_in, n):
    """Invariant factors of ker(d_out)/im(d_in) over Z/n, computed over Z:
    integral Smith on [K | d_in | n I]."""
    K = IntMatrix.from_columns(_integral_kernel_mod(d_out, n), nrows=d_out.cols)
    blocks = hstack(hstack(K, d_in), IntMatrix.identity(d_out.cols).scale(n))
    rel = [v[: K.cols] for v in kernel_basis(blocks)]
    d = smith(IntMatrix.from_columns(rel, nrows=K.cols)).diagonal()
    return tuple(x for x in d if x != 1)


def _order_mod_image(vec, d_in, n):
    """Least t >= 1 with t * vec in im(d_in) + n Z^a, by integral solves."""
    rel = hstack(d_in, IntMatrix.identity(len(vec)).scale(n))
    return next(t for t in range(1, n + 1) if solve(rel, tuple(t * a for a in vec)) is not None)


@st.composite
def mod_n_chains(draw):
    """(d_out, d_in, n) with d_out * d_in = 0 mod n: d_in combines kernel
    generators mod n of a random d_out."""
    n = draw(st.integers(2, 12))
    a = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 3))
    ent = st.integers(-n, n)
    d_out = IntMatrix.from_rows(
        draw(st.lists(st.lists(ent, min_size=a, max_size=a), min_size=rows, max_size=rows)),
        ncols=a,
    )
    kgens = _integral_kernel_mod(d_out, n)
    b = draw(st.integers(0, 3))
    k = len(kgens)
    coeffs = draw(st.lists(st.lists(ent, min_size=k, max_size=k), min_size=b, max_size=b))
    cols = [[sum(c * g[i] for c, g in zip(cs, kgens)) for i in range(a)] for cs in coeffs]
    return d_out, IntMatrix.from_columns(cols, nrows=a), n


class TestModN:
    """Elimination over Z/n: transforms and entries stay below n."""

    @settings(max_examples=150, deadline=None)
    @given(small_matrices(max_dim=4, max_entry=12), st.integers(2, 12))
    def test_smith_mod_n(self, a, n):
        s = smith(a, n)
        assert s.U.mul(a, n).mul(s.V, n).entries == s.D.entries
        assert s.U.mul(s.u_inv, n).entries == IntMatrix.identity(a.rows).entries
        assert s.V.mul(s.v_inv, n).entries == IntMatrix.identity(a.cols).entries
        for m in (s.D, s.U, s.V, s.u_inv, s.v_inv):
            assert all(0 <= x < n for x in _entries(m))
        assert all(entry(s.D, i, j) == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
        factors = [gcd(x, n) for x in s.diagonal()]
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
        # the kernel skips the row transforms and reads the same V
        assert kernel_basis(a, n) == _kernel_from_snf(a, s, n)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(max_dim=3, max_entry=12), st.integers(2, 12), st.data())
    def test_kernel_and_solve_mod_n(self, a, n, data):
        kernel = {
            v for v in itertools.product(range(n), repeat=a.cols)
            if all(x % n == 0 for x in a.apply(v))
        }
        gens = kernel_basis(a, modulus=n)
        assert all(0 <= x < n for g in gens for x in g)
        assert _span_mod(gens, n, a.cols) == kernel
        x = data.draw(st.lists(st.integers(0, n - 1), min_size=a.cols, max_size=a.cols))
        b = a.apply(x, n)
        y = solve(a, b, modulus=n)
        assert a.apply(y, n) == b and all(0 <= v < n for v in y)

    @settings(max_examples=150, deadline=None)
    @given(mod_n_chains(), st.data())
    def test_subquotient_matches_integral_reference(self, chain, data):
        d_out, d_in, n = chain
        h = Subquotient(d_out, d_in, modulus=n)
        g = h.group
        assert g.free_rank == 0
        assert g.torsion == _reference_subquotient(d_out, d_in, n)
        for gen, t in zip(g.generators, g.torsion):
            assert all(0 <= x < n for x in gen)
            assert all(x % n == 0 for x in d_out.apply(gen))
            assert _order_mod_image(gen, d_in, n) == t
        k = len(g.torsion)
        coords = tuple(data.draw(st.lists(st.integers(-2 * n, 2 * n), min_size=k, max_size=k)))
        assert h.project(h.lift(coords)) == h.coords_mod(coords)

    def test_work_does_not_grow_with_the_modulus(self):
        # a 2 x 2 elimination allocates nothing of size n, not even at
        # n = 10^6 + 3 (a table indexed by residues would take ~8 MB here)
        n = 1000003
        a = IntMatrix.from_rows([[2, 4], [6, n - 1]])
        tracemalloc.start()
        try:
            s = smith(a, n)
            h = Subquotient(IntMatrix.zero(1, 2), a, modulus=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000
        assert s.U.mul(a, n).mul(s.V, n).entries == s.D.entries
        assert h.group.torsion == ()


@st.composite
def tall_sparse_matrices(draw, max_rows=24, max_cols=6):
    """Mostly zero matrices of up to 24 x 6 with entries in [-2, 2] and
    whole zero rows and columns: the shape of the bar coboundary matrices
    that the elimination keeps as sparse rows."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    entry = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2, -2))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, r - 1), max_size=r // 2))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c // 2))
    return IntMatrix.from_rows(
        [[0 if i in zero_rows or j in zero_cols else a for j, a in enumerate(row)]
         for i, row in enumerate(rows)]
    )


class TestTallSparse:
    """Smith forms of tall, mostly zero matrices, over Z and over Z/n."""

    @settings(max_examples=150, deadline=None)
    @given(tall_sparse_matrices())
    def test_smith_over_z(self, a):
        s = smith(a)
        assert s.U.mul(a).mul(s.V).entries == s.D.entries
        assert s.U.mul(s.u_inv).entries == IntMatrix.identity(a.rows).entries
        assert s.V.mul(s.v_inv).entries == IntMatrix.identity(a.cols).entries
        assert all(entry(s.D, i, j) == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
        d = s.diagonal()
        assert all(x >= 0 for x in d)
        assert all(y == 0 if x == 0 else y % x == 0 for x, y in zip(d, d[1:]))
        assert kernel_basis(a) == _kernel_from_snf(a, s)

    @settings(max_examples=150, deadline=None)
    @given(tall_sparse_matrices(), st.integers(2, 12))
    def test_smith_mod_n(self, a, n):
        s = smith(a, n)
        assert s.U.mul(a, n).mul(s.V, n).entries == s.D.entries
        assert s.U.mul(s.u_inv, n).entries == IntMatrix.identity(a.rows).entries
        assert s.V.mul(s.v_inv, n).entries == IntMatrix.identity(a.cols).entries
        for m in (s.D, s.U, s.V, s.u_inv, s.v_inv):
            assert all(0 <= x < n for x in _entries(m))
        assert all(entry(s.D, i, j) == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
        factors = [gcd(x, n) for x in s.diagonal()]
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
        assert kernel_basis(a, n) == _kernel_from_snf(a, s, n)


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
        g = cokernel(diagonal([2, 3]))
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
        a = diagonal([2, 4])
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
        with pytest.raises(ValidationError, match=r"^d_out \* d_in != 0$"):
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


@st.composite
def integral_chains(draw):
    """(d_out, d_in, None) with d_out * d_in = 0 over Z: the rows of d_out
    combine vectors that annihilate the columns of d_in."""
    d_in = draw(small_matrices(max_dim=4, max_entry=6))
    ann = kernel_basis(d_in.transpose())
    rows = draw(st.integers(0, 3))
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(ann), max_size=len(ann)),
                           min_size=rows, max_size=rows))
    d_out = IntMatrix.from_rows(
        [[sum(c * y[i] for c, y in zip(cs, ann)) for i in range(d_in.rows)] for cs in coeffs],
        ncols=d_in.rows,
    )
    return d_out, d_in, None


class TestReducedInput:
    @settings(max_examples=150, deadline=None)
    @given(mod_n_chains(), st.data())
    def test_reduced_and_unreduced_give_one_subquotient(self, chain, data):
        d_out, d_in, n = chain
        reduced = Subquotient(d_out.mod(n), d_in.mod(n), modulus=n)
        # entries moved out of [0, n) by multiples of n
        shift = st.integers(-2, 2)
        d_out, d_in = (
            IntMatrix.from_rows([[a + n * data.draw(shift) for a in row] for row in m.entries], ncols=m.cols)
            for m in (d_out, d_in)
        )
        raw = Subquotient(d_out, d_in, modulus=n)
        assert raw.group == reduced.group  # structure and generators
        small = st.integers(-5, 5)
        for _ in range(3):
            # a random cycle: generators of the group plus a boundary
            cs = data.draw(st.lists(small, min_size=len(reduced.group.generators),
                                    max_size=len(reduced.group.generators)))
            x = data.draw(st.lists(small, min_size=d_in.cols, max_size=d_in.cols))
            vec = list(d_in.apply(x))
            for c, gen in zip(cs, reduced.group.generators):
                vec = [v + c * g for v, g in zip(vec, gen)]
            assert raw.project(vec) == reduced.project(vec)


def _copy(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(dict(row) for row in m.nonzeros), m.rows, m.cols)


class TestInputsUnchanged:
    """Each elimination changes its rows in place, on its own copy: every
    input matrix still equals a copy taken before the call."""

    @settings(max_examples=150, deadline=None)
    @given(small_matrices(max_dim=4, max_entry=12), st.sampled_from([None, 2, 4, 6, 12]), st.data())
    def test_smith_solve_kernel_cokernel(self, a, n, data):
        before = _copy(a)
        s = smith(a, n)
        transforms = [_copy(m) for m in (s.U, s.D, s.V, s.u_inv, s.v_inv)]
        b = data.draw(st.lists(st.integers(-12, 12), min_size=a.rows, max_size=a.rows))
        solve(a, b, n)
        kernel_basis(a, n)
        cokernel(a)
        assert a == before
        assert [s.U, s.D, s.V, s.u_inv, s.v_inv] == transforms

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mod_n_chains(), integral_chains()))
    def test_subquotient(self, chain):
        d_out, d_in, n = chain
        before = (_copy(d_out), _copy(d_in))
        h = Subquotient(d_out, d_in, modulus=n)
        for gen in h.group.generators:
            h.project(gen)
        assert (d_out, d_in) == before


class TestValueSemantics:
    @settings(max_examples=100, deadline=None)
    @given(small_matrices())
    def test_constructions_compare_and_hash_equal(self, a):
        forms = [
            IntMatrix.from_rows(a.entries),
            IntMatrix.from_columns([a.column(j) for j in range(a.cols)], nrows=a.rows),
            IntMatrix.identity(a.rows).mul(a),
            # rows filled in another order, as the cochain builders fill them
            IntMatrix(tuple(dict(reversed(row.items())) for row in a.nonzeros), a.rows, a.cols),
        ]
        for m in forms:
            assert m == a and hash(m) == hash(a)
            assert all(0 not in row.values() for row in m.nonzeros)


class TestInvariantFactors:
    def test_basic(self):
        assert invariant_factors([2, 3]) == (6,)
        assert invariant_factors([2, 4]) == (2, 4)
        assert invariant_factors([1, 1]) == ()
        assert invariant_factors([12, 60]) == (12, 60)
        assert invariant_factors([2, 2, 3]) == (2, 6)

    def test_matches_cokernel(self):
        for orders in ([2, 4, 6], [3, 9], [2, 2, 2], [10, 4]):
            g = cokernel(diagonal(orders))
            assert g.torsion == invariant_factors(orders)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([1, 2, 4, 8, 16, 3, 9, 27, 6, 12, 36, 72]),
                              st.integers(1, 2000)), max_size=10))
    def test_matches_the_oracle(self, orders):
        assert invariant_factors(orders) == oracles.invariant_factors(orders)


def test_finabgroup_invariants():
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))
    g = FinAbGroup(1, (2, 4))
    assert g.order() is None
    assert FinAbGroup(0, (2, 4)).order() == 8
    assert str(FinAbGroup(0, ())) == "0"
