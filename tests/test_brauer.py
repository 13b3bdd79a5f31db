import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from torusbrauer import brauer, cli
from torusbrauer.brauer import BrauerAnalysis, n_value, pair_orbits
from torusbrauer.errors import ValidationError
from torusbrauer.groups import GaloisDatum, random_galois_datum, subgroup_from_ids
from torusbrauer.intlat import IntMatrix, solve

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples_cli"


def qi_datum():
    return GaloisDatum.from_generators(2, 4, [((1, 0), 3)])


def s3_datum():
    return GaloisDatum.from_generators(3, 2, [((1, 0, 2), 1), ((0, 2, 1), 1)])


def trivial_datum(r=3, M=2):
    return GaloisDatum.from_generators(r, M, [])


class TestPairOrbits:
    def test_trivial_three_singletons(self):
        orbits, reps = pair_orbits(trivial_datum())
        assert len(orbits) == 3
        assert all(len(o) == 1 for o in orbits)
        assert reps == [(0, 1), (0, 2), (1, 2)]

    def test_swap_single_orbit(self):
        orbits, reps = pair_orbits(qi_datum())
        assert orbits == [((0, 1),)]
        assert reps == [(0, 1)]

    def test_s3_transitive(self):
        orbits, _ = pair_orbits(s3_datum())
        assert len(orbits) == 1 and len(orbits[0]) == 3

    def test_rank_too_small(self):
        with pytest.raises(ValidationError, match="^need at least two coordinates$"):
            pair_orbits(GaloisDatum.from_generators(1, 2, []))


class TestNValue:
    def test_trivial_subgroup(self):
        assert n_value(qi_datum(), (0,)) == 4

    def test_whole_group(self):
        # chi(sigma) = 3: 3 = 1 mod 2 but not mod 4
        assert n_value(qi_datum(), (0, 1)) == 2

    def test_chi_trivial_on_subgroup(self):
        d = s3_datum()
        assert n_value(d, tuple(d.group.elements())) == 2


class TestOrbitReport:
    def test_qi_quadratic(self):
        rep = BrauerAnalysis(qi_datum()).reports[(0, 1)]
        assert rep.quadratic and rep.sigma == 1
        assert rep.n == 4
        assert rep.n_prime == 4 and rep.m_o == 4

    def test_s3_quadratic(self):
        rep = BrauerAnalysis(s3_datum()).reports[(0, 1)]
        assert rep.quadratic
        assert rep.n == 2 and rep.n_prime == 2 and rep.m_o == 2
        assert len(rep.stabilizer_unordered) == 2 * len(rep.stabilizer_ordered)

    def test_n_prime_divides_one_plus_chi(self):
        rng = random.Random(5)
        for _ in range(40):
            d = random_galois_datum(rng)
            for rep in BrauerAnalysis(d).reports.values():
                assert rep.n % 1 == 0 and d.M % rep.n == 0
                if rep.quadratic:
                    assert (1 + d.chi[rep.sigma]) % rep.n_prime == 0
                    assert rep.n % rep.n_prime == 0
                else:
                    assert rep.n_prime is None and rep.m_o == rep.n


class TestBruteInvariants:
    def test_qi(self):
        assert BrauerAnalysis(qi_datum()).oracle.torsion == (4,)

    def test_s3(self):
        oracle = BrauerAnalysis(s3_datum()).oracle
        assert oracle.torsion == (2,)
        assert oracle.generators[0] == (1, 1, 1)

    def test_trivial(self):
        assert BrauerAnalysis(trivial_datum()).oracle.torsion == (2, 2, 2)


def orbit_sums(analysis):
    """The orbit sum of each orbit representative: the declared basis."""
    return [analysis.sums[o.pair] for o in analysis.orbits]


class TestOrbitSums:
    def test_trivial(self):
        assert orbit_sums(BrauerAnalysis(trivial_datum())) == [{0: 1}, {1: 1}, {2: 1}]

    def test_s3(self):
        assert orbit_sums(BrauerAnalysis(s3_datum())) == [{0: 1, 1: 1, 2: 1}]

    def test_qi_unit_multiple(self):
        (v,) = orbit_sums(BrauerAnalysis(qi_datum()))
        assert list(v) == [0] and v[0] % 2 == 1  # a unit times e_12 mod 4


def coset_orbit_sum(analysis, pair):
    """The orbit sum by the coset formula: g . e_pair through the pair
    module, summed over the left coset representatives of the stabilizer,
    scaled into Z/M to exact order m_o."""
    datum, report = analysis.datum, analysis.reports[pair]
    m = datum.M
    h_ids = report.stabilizer_unordered if report.quadratic else report.stabilizer_ordered
    t = list(itertools.combinations(range(datum.r), 2)).index(pair)
    base = tuple(int(s == t) for s in range(analysis.module.rank))
    total = [0] * analysis.module.rank
    for g in subgroup_from_ids(datum.group, h_ids).left_coset_reps():
        for s, x in enumerate(analysis.module.act(g, base)):
            total[s] += x
    return tuple((m // report.m_o * x) % m for x in total)


def cycle_datum(r, M, unit):
    return GaloisDatum.from_generators(r, M, [(tuple((i + 1) % r for i in range(r)), unit)])


class TestOrbitSumsAgainstCosets:
    """Every pair's orbit sum, held as {basis index: nonzero entry}, equals
    the coset formula and lies on the pairs of its orbit."""

    def check(self, datum):
        analysis = BrauerAnalysis(datum)
        pairs = list(itertools.combinations(range(datum.r), 2))
        for pair, v in analysis.sums.items():
            dense = coset_orbit_sum(analysis, pair)
            assert v == {t: x for t, x in enumerate(dense) if x}, pair
            assert {pairs[t] for t in v} <= set(analysis.reports[pair].orbit), pair

    def test_criterion_2_draws(self):
        rng = random.Random(2024)
        for _ in range(60):
            self.check(random_galois_datum(rng))

    # every unit mod 4, 8 and 12 is its own inverse; 3 mod 10 and 5 mod 18
    # are not
    @pytest.mark.parametrize("r", range(2, 9))
    @pytest.mark.parametrize("M, unit", [(4, 3), (8, 5), (12, 7), (12, 5), (10, 3), (18, 5)])
    def test_cycles(self, r, M, unit):
        self.check(cycle_datum(r, M, unit))

    @pytest.mark.parametrize("r", range(3, 9))
    def test_dihedral(self, r):
        rot = tuple((i + 1) % r for i in range(r))
        refl = tuple((-i) % r for i in range(r))
        self.check(GaloisDatum.from_generators(r, 8, [(rot, 3), (refl, 5)]))
        self.check(GaloisDatum.from_generators(r, 10, [(rot, 3), (refl, 9)]))


def solve_says(columns, w, m, rank):
    """Membership by elimination: solve on the dense columns."""
    dense = [tuple(v.get(t, 0) for t in range(rank)) for v in columns]
    matrix = IntMatrix.from_columns(dense, nrows=rank)
    return solve(matrix, tuple(w.get(t, 0) for t in range(rank)), m) is not None


@st.composite
def span_cases(draw):
    """Sparse columns mod m on blocks of coordinates (some column may reach
    outside its block), and a vector w: a combination of the columns, half
    the time moved at one coordinate."""
    m = draw(st.integers(2, 48))
    rank = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    entries = st.integers(0, m - 1)
    columns = [{t: draw(entries) for t in range(rank) if owner[t] == i} for i in range(3)]
    if draw(st.booleans()):  # a support outside the block
        columns[draw(st.integers(0, 2))][draw(st.integers(0, rank - 1))] = draw(entries)
    columns = [{t: x for t, x in v.items() if x} for v in columns]
    w = {}
    for v in columns:
        c = draw(entries)
        for t, x in v.items():
            w[t] = (w.get(t, 0) + c * x) % m
    if draw(st.booleans()):
        t = draw(st.integers(0, rank - 1))
        w[t] = (w.get(t, 0) + draw(st.integers(1, m - 1))) % m
    return m, rank, columns, {t: x for t, x in w.items() if x}


class TestSpanTest:
    """Block membership gives the answer of solve on every input: by reading
    one coordinate per block where its premises hold, by solve where not."""

    @settings(max_examples=400, deadline=None)
    @given(span_cases())
    def test_agrees_with_solve(self, case):
        m, rank, columns, w = case
        assert brauer._span_test(columns, m, rank)(w) == solve_says(columns, w, m, rank)
        for v in columns:
            assert brauer._span_test([v], m, rank)(w) == solve_says([v], w, m, rank)

    @pytest.mark.parametrize(
        "m, columns",
        [
            (12, [{}]),  # the zero base
            (12, [{}, {0: 3, 2: 6}]),
            (12, [{0: 4, 1: 6}]),  # no coordinate of order 6, the order of the base
            (12, [{0: 1, 1: 1}, {1: 2, 2: 1}]),  # a support outside its block
            (8, [{0: 2, 1: 4}, {2: 4}]),
        ],
    )
    def test_every_vector(self, m, columns):
        rank = 3
        in_span = brauer._span_test(columns, m, rank)
        for w in itertools.product(range(m), repeat=rank):
            w = {t: x for t, x in enumerate(w) if x}
            assert in_span(w) == solve_says(columns, w, m, rank), w

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 48), st.lists(st.integers(-100, 100), max_size=6))
    def test_vector_order(self, m, dense):
        # the dense definition: the least k >= 1 with k*v = 0 mod m
        order = next(k for k in range(1, m + 1) if all(k * x % m == 0 for x in dense))
        v = {t: x % m for t, x in enumerate(dense) if x % m}
        assert brauer._vector_order(v, m) == order

    def test_no_elimination_past_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an elimination on orbit sums")

        rng = random.Random(11)
        data = [random_galois_datum(rng) for _ in range(40)]
        data += [cycle_datum(12, 4, 3), cycle_datum(9, 18, 5)]
        analyses = [BrauerAnalysis(d) for d in data]
        monkeypatch.setattr(brauer, "_smith_reduce", refuse)
        for a in analyses:
            assert a.failures() == {}


class TestScale:
    def test_qt_brauer_on_a_30_cycle(self, tmp_path):
        r = 30
        doc = {"kind": "galois-datum", "r": r, "M": 4,
               "generators": [{"perm": [(i + 1) % r for i in range(r)], "unit": 3}]}
        path = tmp_path / "cycle30.json"
        path.write_text(json.dumps(doc))
        code, text = cli.run(["--json", "qt-brauer", str(path)])
        assert code == cli.EXIT_OK
        out = json.loads(text)
        assert out["agreement"] and out["representative_independence"]
        assert out["basis_checks"] == {"structure": True, "generation": True, "orders": True}
        assert sum(o["orbit_size"] for o in out["orbits"]) == math.comb(r, 2)


class TestSymbolBasis:
    def test_qi(self):
        rep = BrauerAnalysis(qi_datum())
        assert rep.group.torsion == (4,)
        assert [s.kind for s in rep.symbols] == ["II"]
        assert rep.symbols[0].second_argument == "y_j - y_i"
        assert rep.symbols[0].modulus == 4
        assert rep.agreement

    def test_s3(self):
        rep = BrauerAnalysis(s3_datum())
        assert rep.group.torsion == (2,)
        assert [(s.kind, s.modulus) for s in rep.symbols] == [("II", 2)]
        assert rep.agreement

    def test_trivial_r2(self):
        rep = BrauerAnalysis(trivial_datum(r=2))
        assert rep.group.torsion == (2,)
        assert rep.symbols[0].kind == "I"
        assert rep.symbols[0].second_argument == "y_j"
        assert rep.agreement

    def test_rank_too_small(self):
        with pytest.raises(ValidationError, match="^need at least two coordinates$"):
            BrauerAnalysis(GaloisDatum.from_generators(1, 2, []))


class TestVerification:
    @pytest.mark.parametrize(
        "datum", [qi_datum(), s3_datum(), trivial_datum(), trivial_datum(2, 4)]
    )
    def test_worked_examples(self, datum):
        assert BrauerAnalysis(datum).failures() == {}

    def test_random_sweep(self):
        rng = random.Random(17)
        for _ in range(25):
            d = random_galois_datum(rng)
            assert BrauerAnalysis(d).failures() == {}, (d.r, d.M, d.perm, d.chi)

    def test_generation_fails_without_an_orbit_sum(self):
        a = BrauerAnalysis(trivial_datum())
        assert a.failures() == {}
        a.orbits = a.orbits[:-1]
        assert a.failures()["generation"].endswith("is not in the span of the orbit sums")

    def test_generation_needs_fixed_orbit_sums(self):
        a = BrauerAnalysis(s3_datum())
        (o,) = a.orbits
        a.sums[o.pair] = {0: 1}  # e_12 alone: moved by the transpositions
        assert a.failures()["generation"] == f"{o.describe()}: orbit sum (1, 0, 0) is not fixed"

    def test_representative_independence_needs_the_same_subgroup(self):
        # one orbit of three pairs under a 3-cycle, with m_o = 12
        a = BrauerAnalysis(GaloisDatum.from_generators(3, 12, [((1, 2, 0), 1)]))
        (o,) = a.orbits
        assert a.failures() == {} and o.m_o == 12 and len(o.orbit) == 3
        base = a.sums[o.pair]
        other = next(pair for pair in o.orbit if pair != o.pair)
        # 2*base lies in <base> but generates a subgroup of index 2
        a.sums[other] = {t: 2 * x % 12 for t, x in base.items()}
        assert a.failures() == {
            "representative_independence": f"{o.describe()}: pair "
            f"({other[0] + 1}, {other[1] + 1}) generates another subgroup"
        }
        # a unit multiple generates <base> itself
        a.sums[other] = {t: 5 * x % 12 for t, x in base.items()}
        assert a.failures() == {}

    def test_every_pair_has_a_report_and_a_sum(self):
        a = BrauerAnalysis(s3_datum())
        assert set(a.reports) == set(a.sums) == {(0, 1), (0, 2), (1, 2)}
        assert all(rep.pair == pair for pair, rep in a.reports.items())


class TestAnalysedOnce:
    def test_qt_brauer_builds_the_pair_module_once(self, monkeypatch):
        calls = []
        build = brauer.pair_module

        def counting(datum, m):
            calls.append(m)
            return build(datum, m)

        monkeypatch.setattr(brauer, "pair_module", counting)
        code, _ = cli.run(["--json", "qt-brauer", str(EXAMPLES / "s3_datum.json")])
        assert code == cli.EXIT_OK
        assert calls == [2]

    def test_criterion_2_stream_seed_7(self):
        rng = random.Random(7)
        for _ in range(50):
            d = random_galois_datum(rng)
            a = BrauerAnalysis(d)
            assert a.agreement and a.failures() == {}, (d.r, d.M, d.perm, d.chi)
