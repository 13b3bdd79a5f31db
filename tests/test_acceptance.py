"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(with its runtime) even when pytest captures output.  Criteria with an explicit
time budget assert it.
"""

import contextlib
import json
import math
import random
import time

import pytest

from tests.matrices import involution_types, random_unimodular
from torusbrauer.brauer import BrauerAnalysis
from torusbrauer.cli import (
    EXIT_DISAGREEMENT,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    parse_split_extension,
    run,
)
from torusbrauer.cohomology import (
    bar_cohomology,
    cohomology,
    corestriction,
    free_resolution,
    restriction,
)
from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    GaloisDatum,
    c2_decompose,
    canonical_involution,
    involution_lattice,
    permutation_lattice,
    random_galois_datum,
    subgroup_generated,
    tate_twist,
    unimodular_inverse,
)
from torusbrauer.intlat import IntMatrix
from torusbrauer.spectral import (
    SplitExtensionSpec,
    pushforward_formula_check,
    d2_02,
    lattice_cohomology,
    real_torus_check,
    total_cohomology,
    v2,
    v2_additivity_check,
    twisted_resolution,
)

import pathlib

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
INPUTS = pathlib.Path(__file__).resolve().parent.parent / "examples_cli"


@contextlib.contextmanager
def criterion(num, capsys, label, budget=None):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        if budget is not None:
            elapsed = time.monotonic() - t0
            assert elapsed < budget, f"over time budget: {elapsed:.1f}s >= {budget}s"
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        with capsys.disabled():
            print(
                f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}"
                f" - {label} ({elapsed:.1f}s)",
                flush=True,
            )


# ---------------------------------------------------------------------------
# shared constructors
# ---------------------------------------------------------------------------


def qi_datum():
    return GaloisDatum.from_generators(2, 4, [((1, 0), 3)])


def s3_datum():
    return GaloisDatum.from_generators(3, 2, [((1, 0, 2), 1), ((0, 2, 1), 1)])


# ---------------------------------------------------------------------------
# criterion 1: worked symbol-basis examples, each under a second
# ---------------------------------------------------------------------------


def test_criterion_1_worked_examples(capsys):
    with criterion(1, capsys, "worked symbol-basis examples under 1s each"):
        t0 = time.monotonic()
        rep = BrauerAnalysis(qi_datum())
        assert time.monotonic() - t0 < 1.0
        assert rep.group.torsion == (4,) and rep.agreement
        assert [s.kind for s in rep.symbols] == ["II"]

        t0 = time.monotonic()
        rep = BrauerAnalysis(s3_datum())
        assert time.monotonic() - t0 < 1.0
        assert rep.group.torsion == (2,) and rep.agreement
        assert [(s.kind, s.modulus) for s in rep.symbols] == [("II", 2)]

        t0 = time.monotonic()
        rep = BrauerAnalysis(GaloisDatum.from_generators(3, 2, []))
        assert time.monotonic() - t0 < 1.0
        assert rep.group.torsion == (2, 2, 2) and rep.agreement
        assert all(s.kind == "I" for s in rep.symbols)


# ---------------------------------------------------------------------------
# criterion 2: random sweep of the symbol basis against the oracle
# ---------------------------------------------------------------------------


def test_criterion_2_random_verification(capsys):
    with criterion(
        2, capsys, "50 random data: declared basis verified against oracle", budget=120
    ):
        rng = random.Random(2024)
        for _ in range(50):
            d = random_galois_datum(rng)
            failures = BrauerAnalysis(d).failures()
            assert not failures, (d.r, d.M, d.perm, d.chi, failures)


# ---------------------------------------------------------------------------
# criterion 3: the quadratic-orbit order divides 1 + chi(sigma)
# ---------------------------------------------------------------------------


def test_criterion_3_quadratic_order_divisibility(capsys):
    with criterion(3, capsys, "n' = gcd(n, 1 + chi(sigma)) exactly on quadratic orbits"):
        rng = random.Random(99)
        data = [qi_datum(), s3_datum()] + [random_galois_datum(rng) for _ in range(40)]
        quadratic_seen = 0
        for d in data:
            for rep in BrauerAnalysis(d).orbits:
                if not rep.quadratic:
                    assert rep.m_o == rep.n
                    continue
                quadratic_seen += 1
                residue = (1 + d.chi[rep.sigma]) % rep.n
                expected = math.gcd(rep.n, residue) if residue else rep.n
                assert rep.n_prime == expected
                assert (1 + d.chi[rep.sigma]) % rep.n_prime == 0
                assert rep.n % rep.n_prime == 0
        assert quadratic_seen >= 10


# ---------------------------------------------------------------------------
# criterion 4: universal-class vanishing for involution lattices
# ---------------------------------------------------------------------------


def test_criterion_4_v2_vanishes_for_involutions(capsys):
    with criterion(
        4,
        capsys,
        "v2 = 0 and d2 = 0 at levels 2 and 4 for all involution lattices of rank <= 4",
        budget=300,
    ):
        rng = random.Random(7)
        c2 = FiniteGroup.cyclic(2)
        random_bs = 0
        for a, b, c in involution_types(4):
            s0 = canonical_involution(a, b, c)
            mats = [s0]
            p = random_unimodular(s0.rows, rng)
            mats.append(p.mul(s0).mul(unimodular_inverse(p)))
            random_bs += 1
            for s in mats:
                n = involution_lattice(s)
                assert v2(n).is_zero(), (a, b, c)
                for level in (2, 4):
                    m = CoeffModule.mu(c2, level, (1, -1))
                    assert d2_02(SplitExtensionSpec(n, m)).is_zero(), (a, b, c, level)
        assert random_bs >= 20


# ---------------------------------------------------------------------------
# criterion 5: real-torus surjectivity across types, conjugates and levels
# ---------------------------------------------------------------------------


def test_criterion_5_real_torus(capsys):
    with criterion(
        5, capsys, "zero transgression for rank <= 3 involutions at levels 2,3,4,8"
    ):
        rng = random.Random(31)
        for a, b, c in involution_types(3):
            s0 = canonical_involution(a, b, c)
            mats = [s0]
            for _ in range(2):
                p = random_unimodular(s0.rows, rng)
                mats.append(p.mul(s0).mul(unimodular_inverse(p)))
            for s in mats:
                rep = real_torus_check(s, (2, 3, 4, 8))
                assert rep.decomposition == (a, b, c)
                assert [lv.n for lv in rep.levels] == [2, 3, 4, 8]
                for lv in rep.levels:
                    assert lv.d2_is_zero, (a, b, c, lv.n)


# ---------------------------------------------------------------------------
# criterion 6: the explicit formula for the twisting differential
# ---------------------------------------------------------------------------


def _v4_with_generators():
    c2 = FiniteGroup.cyclic(2)
    v4 = FiniteGroup.direct_product(c2, c2)
    e = next(g for g in v4.elements() if all(v4.mul(g, x) == x for x in v4.elements()))
    x, y = [g for g in v4.elements() if g != e][:2]
    return v4, e, x, y


def _cv_lattices():
    """(pi label, lattice, list of level modules) combinations."""
    combos = []
    c2 = FiniteGroup.cyclic(2)
    swap = CoeffModule(c2, 2, None, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])))
    swap_plus = swap.direct_sum(CoeffModule.trivial(c2, 1, None))
    for lat in [swap, tate_twist(swap, (1, -1)), swap_plus]:
        mods = [CoeffModule.mu(c2, n, (1, 1)) for n in (2, 3, 4)]
        mods.append(CoeffModule.mu(c2, 4, (1, -1)))
        combos.append(("C2", lat, mods))

    c3 = FiniteGroup.cyclic(3)
    p = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    cyc3 = CoeffModule(c3, 3, None, (IntMatrix.identity(3), p, p.mul(p)))
    combos.append(("C3", cyc3, [CoeffModule.mu(c3, n, (1, 1, 1)) for n in (2, 3, 4)]))

    v4, e, x, y = _v4_with_generators()
    s = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    rho = {e: IntMatrix.identity(3), x: s, y: IntMatrix.identity(3)}
    rho[v4.mul(x, y)] = s
    perm_v4 = CoeffModule(v4, 3, None, tuple(rho[g] for g in v4.elements()))
    chi = {e: 1, x: 1, y: -1, v4.mul(x, y): -1}
    chivals = tuple(chi[g] for g in v4.elements())
    for lat in [perm_v4, tate_twist(perm_v4, chivals)]:
        mods = [CoeffModule.mu(v4, n, (1,) * 4) for n in (2, 3, 4)]
        mods.append(CoeffModule.mu(v4, 4, chivals))
        combos.append(("V4", lat, mods))

    d = s3_datum()
    s3_perm = permutation_lattice(d)
    parity = tuple(
        1 - 2 * (sum(1 for i in range(3) for j in range(i + 1, 3)
                     if d.perm[g][i] > d.perm[g][j]) % 2)
        for g in d.group.elements()
    )
    for lat in [s3_perm, tate_twist(s3_perm, parity)]:
        mods = [
            CoeffModule.mu(d.group, 2, (1,) * 6),
            CoeffModule.mu(d.group, 3, parity),
            CoeffModule.mu(d.group, 4, parity),
        ]
        combos.append(("S3", lat, mods))

    # the two witnesses whose d2 is nonzero: V4 on Z^3 in the FCC basis with
    # mu_4, and C4 on Z^3 with Lambda^2 N (x) Z/4
    for label, name in [("V4", "v4_fcc_extension.json"), ("C4", "c4_extension.json")]:
        ext = parse_split_extension(json.loads((INPUTS / name).read_text()))
        combos.append((label, ext.N, [ext.M]))
    return combos


def test_criterion_6_pushforward_formula_and_additivity(capsys):
    with criterion(
        6, capsys, "pushforward formula on every generator; v2 additive on direct sums"
    ):
        rng = random.Random(13)
        checked = 0
        labels, nonzero = set(), set()
        for label, lat, mods in _cv_lattices():
            labels.add(label)
            for m in mods:
                ext = SplitExtensionSpec(lat, m)
                inv = cohomology(lat.group, lattice_cohomology(lat, m, 2), 0).group
                assert all(pushforward_formula_check(ext, inv.generators, rng=rng)), (label, m.modulus)
                checked += len(inv.generators)
                if not d2_02(ext).is_zero():
                    nonzero.add(label)
        assert labels == {"C2", "C3", "C4", "V4", "S3"}
        assert checked >= 8
        # the formula compares nonzero classes on both witnesses
        assert nonzero == {"C4", "V4"}

        c2 = FiniteGroup.cyclic(2)
        swap = CoeffModule(
            c2, 2, None, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]]))
        )
        pool_c2 = [
            CoeffModule.trivial(c2, 1, None),
            CoeffModule(c2, 1, None, (IntMatrix.identity(1), IntMatrix.from_rows([[-1]]))),
            swap,
            tate_twist(swap, (1, -1)),
        ]
        c3 = FiniteGroup.cyclic(3)
        rot = IntMatrix.from_rows([[0, -1], [1, -1]])
        pool_c3 = [
            CoeffModule.trivial(c3, 1, None),
            CoeffModule(c3, 2, None, (IntMatrix.identity(2), rot, rot.mul(rot))),
        ]
        sums = 0
        while sums < 12:
            pool = pool_c2 if rng.random() < 0.6 else pool_c3
            n1, n2 = rng.choice(pool), rng.choice(pool)
            if n1.rank + n2.rank > 4:
                continue
            assert v2_additivity_check(n1, n2)
            sums += 1


# ---------------------------------------------------------------------------
# criterion 7: resolution and decomposition engine invariants
# ---------------------------------------------------------------------------


def test_criterion_7_engine_invariants(capsys):
    with criterion(
        7, capsys, "resolution identities, classical values, transfer, decompositions",
        budget=300,
    ):
        rng = random.Random(42)

        # boundaries square to zero and homotopies contract, on random chains
        # of the small resolution of S3
        s3, _ = FiniteGroup.symmetric(3)
        res = free_resolution(s3)

        def boundary(p, x):  # d(g.e_b) = g.d(e_b)
            out = {}
            for (b, g), c in x.items():
                for b2, g2, c2 in res.boundary(p, b):
                    key = (b2, s3.mul(g, g2))
                    out[key] = out.get(key, 0) + c * c2
            return {k: v for k, v in out.items() if v}

        def random_chain(p):
            x = {}
            for _ in range(3):
                key = (rng.randrange(res.rank(p)), rng.randrange(6))
                x[key] = x.get(key, 0) + rng.randrange(-2, 3)
            return {k: v for k, v in x.items() if v}

        for p in (2, 3):
            for _ in range(4):
                assert boundary(p - 1, boundary(p, random_chain(p))) == {}
                if p == 2:  # d h + h d = 1 on F_1
                    y = random_chain(1)
                    lhs = boundary(2, res.homotopy(2, y))
                    for k, v in res.homotopy(1, boundary(1, y)).items():
                        lhs[k] = lhs.get(k, 0) + v
                    assert {k: v for k, v in lhs.items() if v} == y

        # on the periodic terms of C4: d h + h d = 1, and d_1 h_1 = 1 - eta eps
        c4 = FiniteGroup.cyclic(4)
        per = free_resolution(c4)

        def h(p, y):  # the homotopy on group ring elements {g: c}
            return {g: c for (_, g), c in per.homotopy(p, {(0, g): c for g, c in y.items()}).items()}

        def d(p, y):  # d_p on group ring elements: y times d_p(e_0)
            out = {}
            for _, a, ca in per.boundary(p, 0):
                for b, cb in y.items():
                    k = c4.mul(b, a)
                    out[k] = out.get(k, 0) + ca * cb
            return out

        for p in range(1, 4):
            x = {rng.randrange(4): rng.randrange(1, 4) for _ in range(2)}
            prod = d(p, h(p, x))
            low = h(p - 1, d(p - 1, x)) if p > 1 else {0: sum(x.values())}
            for k, v in low.items():
                prod[k] = prod.get(k, 0) + v
            assert {k: v for k, v in prod.items() if v} == x

        c2 = FiniteGroup.cyclic(2)
        ind = CoeffModule(
            c2, 2, None, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]]))
        )
        res = twisted_resolution(ind)
        assert res.verify_d_squared()
        samples = []
        for p in range(3):
            for q in range(3):
                for _ in range(3):
                    B = (p, rng.randrange(res.rank(p, 0)))
                    S = tuple(sorted(rng.sample(range(2), q)))
                    a = tuple(rng.randrange(-2, 3) for _ in range(2))
                    u = rng.randrange(2)
                    samples.append(({(a, u, B, S): rng.randrange(1, 4)}, (p, q)))
        assert res.verify_homotopy_identity(samples)

        # free-abelian cohomology orders n^C(r,q)
        triv = FiniteGroup.trivial()
        for r in range(1, 5):
            n_lat = CoeffModule.trivial(triv, r, None)
            for n in (2, 3, 4):
                m = CoeffModule.trivial(triv, 1, n)
                e = SplitExtensionSpec(n_lat, m)
                for q in range(0, 4):
                    assert total_cohomology(e, q).order() == n ** math.comb(r, q)

        # transfer composed with restriction multiplies by the index
        def check_cores_res(G, sub, modulus):
            mod = CoeffModule.trivial(G, 1, modulus)
            for degree in (1, 2):
                eng = cohomology(G, mod, degree)
                for cls in eng.generator_classes():
                    back = corestriction(sub, mod, restriction(cls, sub))
                    expected = eng.sub.coords_mod(
                        tuple(sub.index * c for c in cls.coords)
                    )
                    assert back.coords == expected

        check_cores_res(c4, subgroup_generated(c4, [2]), 4)
        rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
        refl = next(g for g in s3.elements() if s3.element_order(g) == 2)
        check_cores_res(s3, subgroup_generated(s3, [rot]), 6)
        check_cores_res(s3, subgroup_generated(s3, [refl]), 6)

        # the engine and the bar complex agree for cyclic groups
        for m in range(2, 7):
            g = FiniteGroup.cyclic(m)
            mod = CoeffModule.trivial(g, 1, m)
            top = 3 if m <= 4 else 2
            for q in range(0, top + 1):
                a = cohomology(g, mod, q)
                b = bar_cohomology(g, mod, q)
                assert a.group.same_structure(b.group)

        # 100 random involutions split correctly
        types = involution_types(4)
        for i in range(100):
            a, b, c = types[i % len(types)]
            s0 = canonical_involution(a, b, c)
            p = random_unimodular(s0.rows, rng)
            s = p.mul(s0).mul(unimodular_inverse(p))
            d = c2_decompose(s)
            assert (d.a, d.b, d.c) == (a, b, c)
            conj = d.B.mul(s).mul(unimodular_inverse(d.B))
            assert conj.entries == d.canonical_matrix().entries
            assert sum(s.entries[i][i] for i in range(s.rows)) == a - b


# ---------------------------------------------------------------------------
# criterion 8: command-line determinism and error signalling
# ---------------------------------------------------------------------------


def test_criterion_8_cli(capsys, tmp_path):
    with criterion(8, capsys, "byte-stable golden outputs and distinct exit codes"):
        for stem in ("qi_datum", "s3_datum", "split_datum"):
            code, text = run(
                ["--json", "--seed", "0", "qt-brauer", str(INPUTS / f"{stem}.json")]
            )
            assert code == EXIT_OK
            assert text == (GOLDEN / f"{stem}.json.golden").read_text()
            code, text = run(["--seed", "0", "qt-brauer", str(INPUTS / f"{stem}.json")])
            assert code == EXIT_OK
            assert text == (GOLDEN / f"{stem}.txt.golden").read_text()

        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "galois-datum", "r": 2}')
        assert run(["qt-brauer", str(bad)])[0] == EXIT_SCHEMA

        odd = tmp_path / "odd.json"
        odd.write_text('{"kind": "galois-datum", "r": 2, "M": 3, "generators": []}')
        assert run(["qt-brauer", str(odd)])[0] == EXIT_VALIDATION

        noninv = tmp_path / "noninv.json"
        noninv.write_text('{"kind": "involution-lattice", "matrix": [[2]]}')
        assert run(["real-torus", str(noninv)])[0] == EXIT_VALIDATION

        assert len({EXIT_OK, EXIT_SCHEMA, EXIT_VALIDATION, EXIT_DISAGREEMENT}) == 4
