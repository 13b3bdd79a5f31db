"""Group orders computed by torusbrauer against counts that share no code
with it (tests/oracles.py).

For d2 the lattices are those of acceptance criterion 6, written as plain
lists in the CLI's element order.  Levels follow the benchmark's `twisting`
workload (C2 and C3 at 2..7, V4 at 2..5, the sign character from level 3
on), and S3 runs at every level 2..4 with both characters; the V4 targets
are counted on the normalised bar complex.  The same count checks
|H^q(G, M)| for V4 (q = 1..3), D4 and Q8 (q = 1, 2) on trivial, sign and
permutation modules mod 2, 3 and 4.  For the Brauer oracle the data are
acceptance criterion 2's stream.

The count identity checks d2 on the real-torus lattices (the sign twist of
each involution type of rank <= 3, with mu_n acted on by -1).  Inflation
from C2 is injective for a split extension, so no differential reaches the
row q = 0 and

    |H^2(total)| * |im d2| = |H^2(C2, mu_n)| * |H^1(C2, Hom(N, mu_n))| * |source|,

with the first two factors on the right counted by the oracles.  On the V4
witness (examples_cli/v4_fcc_extension.json), whose d2 is nonzero, and on
the S4 permutation lattice of rank 4, the same identity is checked with all
three E2 orders counted on the normalised bar complex and by fixed vectors.
"""

import dataclasses
import itertools
import json
import math
import pathlib
import random

import pytest

from tests import oracles
from torusbrauer.brauer import BrauerAnalysis
from tests.matrices import involution_types
from torusbrauer.cli import parse_split_extension
from torusbrauer.cohomology import cohomology
from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    GaloisDatum,
    canonical_involution,
    involution_lattice,
    tate_twist,
)
from torusbrauer import spectral
from torusbrauer.intlat import IntMatrix
from torusbrauer.spectral import SplitExtensionSpec, d2_02, total_cohomology

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples_cli"


def _perm_matrix(p):
    return [[int(p[j] == i) for j in range(len(p))] for i in range(len(p))]


def _scaled(mats, signs):
    return [[[u * x for x in row] for row in m] for m, u in zip(mats, signs)]


def _closure(gens, mul, one):
    """The elements of the group the generators generate, identity first,
    and its multiplication table on their positions."""
    elems, i = [one], 0
    while i < len(elems):
        for g in gens:
            x = mul(elems[i], g)
            if x not in elems:
                elems.append(x)
        i += 1
    return elems, [[elems.index(mul(a, b)) for b in elems] for a in elems]


def _quaternion_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _groups():
    """name -> (multiplication table, {module: one matrix per element}) for
    V4, D4 and Q8, each with the trivial module, a sign character and a
    permutation module of rank 4: V4 on itself, D4 on the vertices of a
    square and Q8 on its quotient by {+-1}."""

    def pmul(p, q):
        return tuple(p[q[i]] for i in range(len(q)))

    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))

    v4 = [[i ^ j for j in range(4)] for i in range(4)]  # (a, b) is element 2a + b
    d4_elems, d4 = _closure([(1, 2, 3, 0), (0, 3, 2, 1)], pmul, (0, 1, 2, 3))
    q8_elems, q8 = _closure([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion_mul, (1, 0, 0, 0))
    # Q8 / {+-1}: the class of an element is the position of +-1, i, j or k
    q8_class = [next(i for i, x in enumerate(e) if x) for e in q8_elems]
    q8_reps = [q8_elems.index(u) for u in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    one = [[1]]
    return {
        "V4": (v4, {"trivial": [one] * 4,
                    "sign": [[[s]] for s in (1, -1, 1, -1)],
                    "permutation": [_perm_matrix(row) for row in v4]}),
        "D4": (d4, {"trivial": [one] * 8,
                    "sign": [[[sign(p)]] for p in d4_elems],
                    "permutation": [_perm_matrix(p) for p in d4_elems]}),
        "Q8": (q8, {"trivial": [one] * 8,
                    "sign": [[[-1 if e[2] or e[3] else 1]] for e in q8_elems],
                    "permutation": [_perm_matrix([q8_class[q8[g][r]] for r in q8_reps])
                                    for g in range(8)]}),
    }


GROUPS = _groups()
DEGREES = {"V4": (1, 2, 3), "D4": (1, 2), "Q8": (1, 2)}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("module", ["trivial", "sign", "permutation"])
@pytest.mark.parametrize("name,q", [(name, q) for name, qs in DEGREES.items() for q in qs])
def test_cohomology_orders_match_the_bar_oracle(name, q, module, n):
    table, modules = GROUPS[name]
    mats = modules[module]
    G = FiniteGroup(tuple(map(tuple, table)))
    M = CoeffModule.make(G, len(mats[0]), n, [IntMatrix.from_rows(m) for m in mats])
    assert _order(cohomology(G, M, q).group) == oracles.bar_h_order(table, mats, n, q)


def _lattices():
    """name -> (pi document, rho, sign character or None, target oracle)."""
    i2, i3, sw = _perm_matrix((0, 1)), _perm_matrix((0, 1, 2)), _perm_matrix((1, 0))
    sw_plus = _perm_matrix((1, 0, 2))
    c3 = _perm_matrix((1, 2, 0))
    c2_sign = (1, -1)
    # V4 elements are (0,0), (0,1), (1,0), (1,1): x = (1,0) swaps e_0 and e_1,
    # and the sign character is -1 on y = (0,1) and on xy.
    v4 = [i3, i3, sw_plus, sw_plus]
    v4_sign = (1, -1, 1, -1)
    s3 = [(0, 1, 2)] + [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
    s3_rho = [_perm_matrix(p) for p in s3]
    parity = tuple(
        (-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) for p in s3
    )
    return {
        "C2 swap": ({"cyclic": 2}, [i2, sw], c2_sign, "tate"),
        "C2 swap (x) sign": ({"cyclic": 2}, _scaled([i2, sw], c2_sign), c2_sign, "tate"),
        "C2 swap + 1": ({"cyclic": 2}, [i3, sw_plus], c2_sign, "tate"),
        "C3 permutation": ({"cyclic": 3}, [i3, c3, _perm_matrix((2, 0, 1))], None, "tate"),
        "V4 permutation": ({"klein": True}, v4, v4_sign, "bar"),
        "V4 permutation (x) sign": ({"klein": True}, _scaled(v4, v4_sign), v4_sign, "bar"),
        "S3 permutation": ({"symmetric": 3}, s3_rho, parity, "shapiro"),
        "S3 permutation (x) sign": ({"symmetric": 3}, _scaled(s3_rho, parity), parity, "shapiro"),
    }


LATTICES = _lattices()
LEVELS = {"C2": range(2, 8), "C3": range(2, 8), "V4": range(2, 6), "S3": range(2, 5)}


def _cases():
    for name, (_, _, sign, _) in LATTICES.items():
        for n in LEVELS[name[:2]]:
            yield name, n, False
            if sign is not None and (n > 2 or name.startswith("S3")):
                yield name, n, True


def _order(group) -> int:
    assert group.free_rank == 0
    return math.prod(group.torsion)


@pytest.mark.parametrize("name,n,signed", list(_cases()))
def test_d2_orders_match_enumeration(name, n, signed):
    pi, rho, sign, target = LATTICES[name]
    chi = list(sign) if signed else [1] * len(rho)
    doc = {"kind": "split-extension", "pi": pi, "action": rho,
           "coefficients": {"mu": n, "chi": chi}}
    report = d2_02(parse_split_extension(doc))

    assert _order(report.source) == oracles.fixed_count(oracles.hom_action(rho, chi, n, 2), n)
    if target == "tate":
        expected = oracles.tate_h2_order(oracles.hom_action(rho, chi, n, 1), n)
        assert _order(report.target) == expected
    elif target == "shapiro":
        assert _order(report.target) == oracles.shapiro_h2_order(rho, chi, n)
    else:
        table = GROUPS["V4"][0]
        expected = oracles.bar_h_order(table, oracles.hom_action(rho, chi, n, 1), n, 2)
        assert _order(report.target) == expected
    assert report.matrix.rows == len(report.target.generators)
    assert report.matrix.cols == len(report.source.generators)


def test_brauer_oracle_matches_orbit_counts():
    rng = random.Random(2024)  # the stream of acceptance criterion 2
    for _ in range(50):
        r = rng.randrange(2, 5)
        M = rng.choice([2, 4, 6, 8, 12])
        units = [u for u in range(1, M) if math.gcd(u, M) == 1]
        gens = []
        for _ in range(rng.randrange(0, 3)):
            p = list(range(r))
            rng.shuffle(p)
            gens.append((tuple(p), rng.choice(units)))
        oracle = BrauerAnalysis(GaloisDatum.from_generators(r, M, gens)).oracle
        expected = oracles.invariant_factors(oracles.brauer_orbit_orders(r, M, gens))
        assert (oracle.free_rank, oracle.torsion) == (0, expected), (r, M, gens)


def _image_order(matrix, target) -> int:
    """The order of the subgroup of the target spanned by the columns of
    matrix, by closing the span under addition."""
    assert target.free_rank == 0
    orders = target.torsion
    cols = [tuple(x % t for x, t in zip(matrix.column(j), orders)) for j in range(matrix.cols)]
    span, frontier = {(0,) * len(orders)}, [(0,) * len(orders)]
    while frontier:
        v = frontier.pop()
        for col in cols:
            w = tuple((x + y) % t for x, y, t in zip(v, col, orders))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return len(span)


def _real_torus_extension(kind, n):
    N = tate_twist(involution_lattice(canonical_involution(*kind)), (1, -1))
    return SplitExtensionSpec(N, CoeffModule.mu(N.group, n, (1, -1)))


def _count_identity_holds(ext, report, n) -> bool:
    rho = [[list(row) for row in m.entries] for m in ext.N.action]
    chi = [1, -1]
    e20 = oracles.tate_h2_order([[[1]], [[-1 % n]]], n)
    e11 = oracles.tate_h1_order(oracles.hom_action(rho, chi, n, 1), n)
    lhs = _order(total_cohomology(ext, 2)) * _image_order(report.matrix, report.target)
    return lhs == e20 * e11 * _order(report.source)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("kind", involution_types(3), ids=str)
def test_real_torus_count_identity(kind, n):
    ext = _real_torus_extension(kind, n)
    assert _count_identity_holds(ext, d2_02(ext), n)


def test_count_identity_rejects_a_nonzero_d2():
    # type (1, 1, 0) at level 2: source Z/2, target (Z/2)^2
    ext = _real_torus_extension((1, 1, 0), 2)
    report = d2_02(ext)
    assert _order(report.target) > 1 and report.matrix.cols > 0 and report.is_zero()
    column = [1] + [0] * (report.matrix.rows - 1)
    patched = IntMatrix.from_columns([column] * report.matrix.cols, nrows=report.matrix.rows)
    assert not _count_identity_holds(ext, dataclasses.replace(report, matrix=patched), 2)


def _e2_orders(doc):
    """|E2^{2,0}|, |E2^{1,1}| and |E2^{0,2}| of a split-extension document
    with coefficients mu_n: on the normalised bar complex and by fixed
    vectors."""
    table, rho = doc["pi"]["table"], doc["action"]
    n, chi = doc["coefficients"]["mu"], doc["coefficients"]["chi"]
    return (oracles.bar_h_order(table, [[[u % n]] for u in chi], n, 2),
            oracles.bar_h_order(table, oracles.hom_action(rho, chi, n, 1), n, 1),
            oracles.fixed_count(oracles.hom_action(rho, chi, n, 2), n))


def test_count_identity_on_s4():
    # S4 permuting the basis of Z^4, mu_2: d2 is zero, so nothing is divided out
    G, perms = FiniteGroup.symmetric(4)
    doc = {"kind": "split-extension", "pi": {"table": [list(row) for row in G.table]},
           "action": [_perm_matrix(p) for p in perms], "coefficients": {"mu": 2, "chi": [1] * 24}}
    assert _e2_orders(doc) == (4, 2, 2)
    ext = parse_split_extension(doc)
    assert d2_02(ext).is_zero()
    assert _order(total_cohomology(ext, 2)) == 4 * 2 * 2


def test_count_identity_on_the_v4_witness(monkeypatch):
    doc = json.loads((EXAMPLES / "v4_fcc_extension.json").read_text())
    e20, e11, e02 = _e2_orders(doc)
    assert (e20, e11, e02) == (8, 8, 4)
    ext = parse_split_extension(doc)
    h2 = _order(total_cohomology(ext, 2))
    assert h2 == 128

    def predicted():  # no differential reaches the row q = 0
        report = spectral.d2_02(ext)
        return e20 * e11 * e02 // _image_order(report.matrix, report.target)

    assert predicted() == h2  # |im d2| = 2
    report = d2_02(ext)
    zero = dataclasses.replace(report, matrix=IntMatrix.zero(report.matrix.rows, report.matrix.cols))
    monkeypatch.setattr(spectral, "d2_02", lambda ext: zero)
    assert predicted() == 256


def test_oracles_on_hand_computed_cases():
    # C2 swapping two coordinates: H^2(C2, Z/n[C2]) = 0, and the fixed
    # vectors of the swap on (Z/n)^2 are the n diagonal ones.
    swap = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert oracles.tate_h2_order(swap, 6) == 1
    assert oracles.fixed_count(swap, 6) == 6
    # C2 acting trivially on Z/n: H^2 = (Z/n)/2(Z/n), of order gcd(2, n)
    for n in (2, 3, 4, 7):
        assert oracles.tate_h2_order([[[1]], [[1]]], n) == math.gcd(2, n)
    # Lambda^2 of the swap on Z^3 (e_0 <-> e_1) fixes e_0^e_1 up to sign -1
    assert oracles.wedge2(_perm_matrix((1, 0, 2))) == [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert oracles.invariant_factors([2, 3]) == (6,)
    assert oracles.invariant_factors([4, 6, 1]) == (2, 12)
    # the quasi-trivial example: the swap with unit 3 mod 4 fixes all of Z/4
    assert oracles.brauer_orbit_orders(2, 4, [((1, 0), 3)]) == [4]
    # H^1(C2, Z/n): the sign action gives the 2-torsion over 0, the trivial
    # action Hom(C2, Z/n), both of order gcd(2, n); the swap's H^1 is 0
    for n in (2, 3, 4, 7):
        assert oracles.tate_h1_order([[[1]], [[-1 % n]]], n) == math.gcd(2, n)
        assert oracles.tate_h1_order([[[1]], [[1]]], n) == math.gcd(2, n)
    assert oracles.tate_h1_order(swap, 6) == 1
    # involution types: F_2-rank of s + 1 and the trace
    assert oracles.involution_type([[1, 0], [0, -1]]) == (1, 1, 0)
    assert oracles.involution_type([[0, 1], [1, 0]]) == (0, 0, 1)
    assert oracles.involution_type([[1, 2], [0, -1]]) == (1, 1, 0)
    assert oracles.involution_type([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]) == (0, 1, 1)
