"""Rejection tests for the structural checks of groups.py.

Each check (associativity of a table, the homomorphism property of a Galois
datum's `perm` and `chi`, of a lattice action and of a module action) is
exercised on a case whose only failure sits at a product of non-generators,
and compared with a brute-force oracle that tests every pair or triple.  The
oracles repeat the checks in the order the constructors run them, so the
message must agree as well as the verdict."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from torusbrauer.errors import ValidationError
from torusbrauer.groups import CoeffModule, FiniteGroup, GaloisDatum
from torusbrauer.intlat import IntMatrix


def _matmul(a, b, n=None):
    out = [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
    if n is not None:
        out = [[x % n for x in row] for row in out]
    return tuple(tuple(row) for row in out)


def _identity(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# brute-force oracles: |G|^3 triples, |G|^2 pairs
# ---------------------------------------------------------------------------


def table_oracle(table) -> str | None:
    n = len(table)
    if n == 0 or any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
        return "malformed multiplication table"
    if any(table[0][g] != g or table[g][0] != g for g in range(n)):
        return "id 0 is not a two-sided identity"
    for g in range(n):
        if 0 not in table[g]:
            return f"element {g} has no inverse"
    for g, h, k in itertools.product(range(n), repeat=3):
        if table[table[g][h]][k] != table[g][table[h][k]]:
            return "multiplication is not associative"
    return None


def action_oracle(table, mats, rank, modulus) -> str | None:
    """The checks of CoeffModule on the raw matrices: a module with no
    modulus is a lattice."""
    n = len(table)
    what = "lattice" if modulus is None else "module"
    if modulus is not None:
        for m in mats:
            if any(not 0 <= x < modulus for row in m for x in row):
                return "entries must be reduced mod n"
    if mats[0] != _identity(rank):
        return "identity must act as the identity matrix"
    for g, h in itertools.product(range(n), repeat=2):
        if _matmul(mats[g], mats[h], modulus) != mats[table[g][h]]:
            return f"{what} action is not a homomorphism"
    return None


def verdict(build) -> str | None:
    try:
        build()
    except ValidationError as e:
        return str(e)
    return None


# ---------------------------------------------------------------------------
# base groups with a faithful small representation
# ---------------------------------------------------------------------------


def _perm_matrix(p):
    return tuple(tuple(1 if p[j] == i else 0 for j in range(len(p))) for i in range(len(p)))


def _symmetric(n):
    grp, elems = FiniteGroup.symmetric(n)
    return grp.table, [_perm_matrix(p) for p in elems]


def _matrix_group(gens):
    grp, elems = FiniteGroup.from_concrete(gens, _matmul, _identity(len(gens[0])))
    return grp.table, elems


C6_ROTATION = ((0, -1), (1, 1))  # order 6
C2_X_C4 = ((-1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, -1), (0, 1, 0))

BASE_GROUPS = {
    "C6": _matrix_group([C6_ROTATION]),
    "S3": _symmetric(3),
    "C2xC4": _matrix_group(list(C2_X_C4)),
    "S4": _symmetric(4),
}


def test_base_groups():
    assert [len(t) for t, _ in BASE_GROUPS.values()] == [6, 6, 8, 24]
    for table, mats in BASE_GROUPS.values():
        assert table_oracle(table) is None
        assert action_oracle(table, mats, len(mats[0]), None) is None


# ---------------------------------------------------------------------------
# one failure, at a product of non-generators
# ---------------------------------------------------------------------------

# S3 from FiniteGroup.symmetric(3) lists (0 2 1) as id 1 and (1 0 2) as id 2;
# these two generate, and the 3-cycles 3 and 4 = 3*3 are products of them.
S3, S3_ELEMS = FiniteGroup.symmetric(3)
S3_SQUARE = S3.mul(3, 3)


def test_greedy_generators():
    assert FiniteGroup.trivial().generators == ()
    assert FiniteGroup.cyclic(6).generators == (1,)
    assert S3.generators == (1, 2)
    for table, _ in BASE_GROUPS.values():
        G = FiniteGroup(table)
        assert len(G.generators) <= G.order.bit_length() - 1
        reached = {0}
        while True:
            more = {G.mul(x, s) for x in reached for s in G.generators} - reached
            if not more:
                break
            reached |= more
        assert reached == set(G.elements())


def test_table_wrong_at_one_product_of_non_generators():
    # C6 is generated by id 1; 2 * 3 is changed from 5 to 1 and nothing else
    table = [list(row) for row in FiniteGroup.cyclic(6).table]
    table[2][3] = 1
    table = tuple(map(tuple, table))
    assert table_oracle(table) == "multiplication is not associative"
    with pytest.raises(ValidationError, match="^multiplication is not associative$"):
        FiniteGroup(table)


def _s3_datum_parts():
    perm = tuple(tuple(p) for p in S3_ELEMS)
    chi = tuple(1 if sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 == 0
                else 3 for p in S3_ELEMS)
    return perm, chi


def test_perm_wrong_at_one_product_of_non_generators():
    perm, chi = _s3_datum_parts()
    GaloisDatum(S3, 3, 4, perm, chi)
    perm = list(perm)
    perm[S3_SQUARE] = perm[3]
    with pytest.raises(ValidationError, match="^perm is not a homomorphism$"):
        GaloisDatum(S3, 3, 4, tuple(perm), chi)


def test_chi_wrong_at_one_product_of_non_generators():
    perm, chi = _s3_datum_parts()
    chi = list(chi)
    chi[S3_SQUARE] = 3
    with pytest.raises(ValidationError, match="^chi is not a homomorphism$"):
        GaloisDatum(S3, 3, 4, perm, tuple(chi))


def _s3_matrices_wrong_at_square():
    mats = [IntMatrix.from_rows([list(r) for r in _perm_matrix(p)]) for p in S3_ELEMS]
    bad = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    mats[S3_SQUARE] = IntMatrix.from_rows(bad)
    return tuple(mats)


def test_lattice_wrong_at_one_product_of_non_generators():
    mats = _s3_matrices_wrong_at_square()
    with pytest.raises(ValidationError, match="^lattice action is not a homomorphism$"):
        CoeffModule(S3, 3, None, mats)


def test_module_wrong_at_one_product_of_non_generators():
    mats = _s3_matrices_wrong_at_square()
    with pytest.raises(ValidationError, match="^module action is not a homomorphism$"):
        CoeffModule(S3, 3, 5, mats)


# ---------------------------------------------------------------------------
# properties: accepted exactly when the brute-force oracle accepts
# ---------------------------------------------------------------------------


@st.composite
def perturbed_tables(draw):
    table, _ = BASE_GROUPS[draw(st.sampled_from(sorted(BASE_GROUPS)))]
    n = len(table)
    # relabel by a permutation fixing the identity: still a group
    rest = draw(st.permutations(range(1, n)))
    relabel = (0, *rest)
    back = {v: i for i, v in enumerate(relabel)}
    rows = [[relabel[table[back[a]][back[b]]] for b in range(n)] for a in range(n)]
    # then swap two entries of a row or of a column, off the identity's row
    # and column, 0 to 2 times
    for _ in range(draw(st.integers(0, 2))):
        line = draw(st.integers(1, n - 1))
        a, b = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            rows[line][a], rows[line][b] = rows[line][b], rows[line][a]
        else:
            rows[a][line], rows[b][line] = rows[b][line], rows[a][line]
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(perturbed_tables())
def test_table_check_matches_brute_force(table):
    assert verdict(lambda: FiniteGroup(table)) == table_oracle(table)


@st.composite
def perturbed_actions(draw):
    name = draw(st.sampled_from(sorted(BASE_GROUPS)))
    table, mats = BASE_GROUPS[name]
    modulus = draw(st.sampled_from([None, 2, 3, 4, 7]))
    reduce = (lambda m: m) if modulus is None else (
        lambda m: tuple(tuple(x % modulus for x in row) for row in m)
    )
    mats = [reduce(m) for m in mats]
    kind = draw(st.sampled_from(["none", "swap", "entry"]))
    n, k = len(mats), len(mats[0])
    if kind == "swap":
        g, h = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mats[g], mats[h] = mats[h], mats[g]
    elif kind == "entry":
        g = draw(st.integers(0, n - 1))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        rows = [list(row) for row in mats[g]]
        rows[i][j] += draw(st.sampled_from([-1, 1, 2]))
        mats[g] = reduce(tuple(map(tuple, rows)))
    return name, modulus, tuple(mats)


def _group(name):
    return FiniteGroup(BASE_GROUPS[name][0])


@settings(max_examples=200, deadline=None)
@given(perturbed_actions())
def test_action_checks_match_brute_force(case):
    name, modulus, mats = case
    table, k = BASE_GROUPS[name][0], len(mats[0])
    ints = tuple(IntMatrix.from_rows([list(r) for r in m]) for m in mats)
    assert verdict(lambda: CoeffModule(_group(name), k, modulus, ints)) == action_oracle(
        table, mats, k, modulus
    )


# A loop of order 5 (a Latin square with identity 0) that is not a group:
# each right translation x -> x*g, g != 0, is a 2-cycle times a 3-cycle, so
# the translations by any generating set generate a group that is not
# regular (the square of one fixes two points), and no group table has them
# as its right translations.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))


@pytest.mark.parametrize("listing", itertools.permutations(range(1, 5)))
def test_closure_refuses_a_non_associative_loop(listing):
    assert table_oracle(LOOP5) == "multiplication is not associative"
    with pytest.raises(ValidationError):
        FiniteGroup.from_concrete(listing, lambda a, b: LOOP5[a][b], 0)
