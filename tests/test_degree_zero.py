"""H^0 on the group's own free resolution F, for every group.

Degree 0 reads d^0 on F_1, one block s - 1 per generator s, where the bar
complex has one block g - 1 per element.  These tests pin that the
qt-brauer oracle and the source of d2 never build a bar coboundary, that
degree 0 on F and on the bar complex give the same fixed subgroup, and that
the class maps work at n = 0 on a non-cyclic group."""

import json
import pathlib
import random

import pytest

from torusbrauer import cohomology as cohomology_module
from torusbrauer.brauer import BrauerAnalysis
from torusbrauer.cli import parse_split_extension
from torusbrauer.cohomology import (
    GroupCohomology,
    SmallResolution,
    bar_cohomology,
    cohomology,
    corestriction,
    restriction,
)
from torusbrauer.groups import CoeffModule, FiniteGroup, pair_module, random_galois_datum, subgroup_generated
from torusbrauer.intlat import IntMatrix, solve
from torusbrauer.spectral import d2_02, lattice_cohomology

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples_cli"


def criterion2_data():
    """The stream of acceptance criterion 2."""
    rng = random.Random(2024)
    return [random_galois_datum(rng) for _ in range(50)]


def noncyclic_extensions():
    """The examples_cli split extensions whose pi is not cyclic."""
    names = ["s3_extension.json", "v4_extension.json", "v4_fcc_extension.json"]
    return {name: parse_split_extension(json.loads((EXAMPLES / name).read_text())) for name in names}


def degree_zero_cases():
    """(group, module) of every H^0 the gate reads: the pair modules of the
    criterion-2 stream (the qt-brauer oracle) and the source of d2 on the
    non-cyclic examples."""
    cases = [(d.group, pair_module(d, d.M)) for d in criterion2_data()]
    cases += [(ext.pi, lattice_cohomology(ext.N, ext.M, 2)) for ext in noncyclic_extensions().values()]
    return cases


def regular_module(G, modulus):
    """Z[G] mod `modulus`, G permuting the basis by left multiplication."""
    n = G.order
    mats = [IntMatrix.from_rows([[int(G.mul(g, j) == i) for j in range(n)] for i in range(n)])
            for g in G.elements()]
    return CoeffModule(G, n, modulus, tuple(mats))


@pytest.fixture
def no_bar_coboundary(monkeypatch):
    """Every engine built while this fixture is active works on F: a bar
    coboundary matrix raises."""

    def refuse(*args):
        raise AssertionError("a bar coboundary matrix was built")

    cohomology.cache_clear()
    monkeypatch.setattr(cohomology_module, "bar_delta_matrix", refuse)
    yield
    cohomology.cache_clear()


class TestNoBarComplex:
    def test_oracle_of_the_criterion2_stream(self, no_bar_coboundary):
        for d in criterion2_data():
            assert not BrauerAnalysis(d).failures(), (d.r, d.M, d.perm, d.chi)

    @pytest.mark.parametrize("name", sorted(noncyclic_extensions()))
    def test_source_of_d2(self, name, no_bar_coboundary):
        ext = noncyclic_extensions()[name]
        assert ext.pi.generator_if_cyclic() is None
        rep = d2_02(ext)
        assert rep.matrix.rows == len(rep.target.generators)
        assert rep.matrix.cols == len(rep.source.generators)

    def test_builds_no_term_past_f1(self, monkeypatch):
        s3, _ = FiniteGroup.symmetric(3)
        M = regular_module(s3, 6)
        fresh = SmallResolution(s3)
        monkeypatch.setattr(cohomology_module, "free_resolution", lambda G: fresh)
        eng = GroupCohomology(s3, M, 0)
        for cls in eng.generator_classes():
            assert eng.classify(cls.cochain).coords == cls.coords
        assert eng.res is fresh
        assert len(fresh._d) == 2 and not fresh._matrix and not fresh._snf


def in_span(gens, v, modulus: int) -> bool:
    if not gens:
        return not any(x % modulus for x in v)
    A = IntMatrix.from_columns([list(g) for g in gens], nrows=len(v))
    return solve(A, list(v), modulus) is not None


def test_same_fixed_subgroup_as_bar():
    """Degree 0 on F and on the bar complex: the same invariant factors and
    the same subgroup, each generating set inside the span of the other."""
    for G, M in degree_zero_cases():
        on_f, on_bar = cohomology(G, M, 0), bar_cohomology(G, M, 0)
        assert on_f.group.same_structure(on_bar.group)
        a, b = on_f.group.generators, on_bar.group.generators
        assert all(in_span(a, v, M.modulus) for v in b)
        assert all(in_span(b, v, M.modulus) for v in a)


def v4():
    c2 = FiniteGroup.cyclic(2)
    return FiniteGroup.direct_product(c2, c2)


def noncyclic_pairs():
    """name -> (subgroup, module over the ambient group)."""
    s3, _ = FiniteGroup.symmetric(3)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    V = v4()
    return {
        "S3 > C3 regular mod 6": (subgroup_generated(s3, [rot]), regular_module(s3, 6)),
        "S3 > C3 trivial mod 6": (subgroup_generated(s3, [rot]), CoeffModule.trivial(s3, 1, 6)),
        "V4 > C2 regular mod 4": (subgroup_generated(V, [1]), regular_module(V, 4)),
        "V4 > C2 trivial mod 4": (subgroup_generated(V, [1]), CoeffModule.trivial(V, 2, 4)),
    }


@pytest.mark.parametrize("name", sorted(noncyclic_pairs()))
class TestClassMapsInDegreeZero:
    def test_rep_of_classify_round_trip(self, name):
        sub, M = noncyclic_pairs()[name]
        eng = cohomology(sub.ambient, M, 0)
        for cls in eng.generator_classes():
            assert eng.classify(cls.cochain).coords == cls.coords
        # no coboundaries in degree 0: a class is its fixed vector, on F_0
        # and on the bar complex alike
        for v in bar_cohomology(sub.ambient, M, 0).group.generators:
            assert eng.class_from_coords(eng.coords_of(v)).cochain == tuple(v)

    def test_corestriction_of_restriction_is_the_index(self, name):
        sub, M = noncyclic_pairs()[name]
        eng = cohomology(sub.ambient, M, 0)
        for cls in eng.generator_classes():
            back = corestriction(sub, M, restriction(cls, sub))
            assert back.coords == eng.sub.coords_mod(tuple(sub.index * c for c in cls.coords))
