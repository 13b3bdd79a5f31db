import ast
import copy
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from torusbrauer import brauer, cli, spectral
from torusbrauer.brauer import BrauerAnalysis
from torusbrauer.cli import (
    EXIT_DISAGREEMENT,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    build_parser,
    parse_involution,
    run,
    to_json,
)
from torusbrauer.errors import DisagreementError, SchemaError, TorusBrauerError, ValidationError
from torusbrauer.groups import (
    MAX_INVOLUTION_RANK,
    MAX_LEVEL,
    MAX_ORACLE_ENTRIES,
    MAX_RANK,
    MAX_REAL_TORUS_LEVELS,
    FiniteGroup,
    GaloisDatum,
    canonical_involution,
    unimodular_inverse,
)
from torusbrauer.intlat import IntMatrix
from torusbrauer.spectral import real_torus_check, real_torus_levels, twisted_resolution, v2
from tests.matrices import involution_types, ladder
from tests.test_spectral import real_d2

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
INPUTS = ROOT / "examples_cli"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestGolden:
    @pytest.mark.parametrize(
        "stem", ["qi_datum", "s3_datum", "split_datum"]
    )
    def test_json_byte_stable(self, stem):
        code, text = run(["--json", "--seed", "0", "qt-brauer", str(INPUTS / f"{stem}.json")])
        assert code == EXIT_OK
        assert text == (GOLDEN / f"{stem}.json.golden").read_text()
        # repeat run is identical
        assert run(["--json", "--seed", "0", "qt-brauer", str(INPUTS / f"{stem}.json")])[1] == text

    @pytest.mark.parametrize(
        "stem", ["qi_datum", "s3_datum", "split_datum"]
    )
    def test_text_byte_stable(self, stem):
        code, text = run(["--seed", "0", "qt-brauer", str(INPUTS / f"{stem}.json")])
        assert code == EXIT_OK
        assert text == (GOLDEN / f"{stem}.txt.golden").read_text()

    SECOND_PAGE = [
        ("s3_extension", "d2", []),
        ("v4_extension", "d2", []),
        ("v4_extension", "v2", []),
        ("ind_lattice", "real-torus", ["--modulus", "2,3,4,8"]),
        ("ind_extension", "d2", []),
        ("ind_extension", "v2", []),
        ("s3_extension", "v2", []),
        # the witnesses whose d2 and v2 are nonzero
        ("v4_fcc_extension", "d2", []),
        ("v4_fcc_extension", "v2", []),
        ("c4_extension", "d2", []),
        ("c4_extension", "v2", []),
    ]

    @pytest.mark.parametrize("fmt", ["json", "txt"])
    @pytest.mark.parametrize("stem,command,extra", SECOND_PAGE)
    def test_second_page_byte_stable(self, stem, command, extra, fmt):
        flags = ["--json"] if fmt == "json" else []
        code, text = run(flags + ["--seed", "0", command, str(INPUTS / f"{stem}.json")] + extra)
        assert code == EXIT_OK
        assert text == (GOLDEN / f"{stem}.{command}.{fmt}.golden").read_text()

    # oracle_generators of the goldens before the oracle's subquotient was
    # computed by elimination over Z/M: the generators may change with the
    # elimination, the subgroup of (Z/M)^a they span and their orders may not
    PREVIOUS_ORACLE_GENERATORS = {
        "qi_datum": [[3]],
        "s3_datum": [[1, 1, 1]],
        "split_datum": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }

    @pytest.mark.parametrize("stem", sorted(PREVIOUS_ORACLE_GENERATORS))
    def test_oracle_generators_span_previous_subgroup(self, stem):
        doc = json.loads((GOLDEN / f"{stem}.json.golden").read_text())
        M = doc["input"]["M"]

        def span(gens):
            out = {tuple(0 for _ in gens[0])}
            for g in gens:
                out = {tuple((a + k * b) % M for a, b in zip(v, g)) for v in out for k in range(M)}
            return out

        def order(g):
            return next(k for k in range(1, M + 1) if all(k * x % M == 0 for x in g))

        old, new = self.PREVIOUS_ORACLE_GENERATORS[stem], doc["oracle_generators"]
        assert span(new) == span(old)
        assert sorted(map(order, new)) == sorted(map(order, old))

    def test_roundtrip_lossless(self):
        _, text = run(["--json", "qt-brauer", str(INPUTS / "qi_datum.json")])
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


# strings with the characters JSON escapes, ints past 64 bits, every float
JSON_SCALARS = (
    st.text(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')
        | st.characters()
    )
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.booleans()
    | st.none()
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """`to_json` writes the bytes of json.dumps(x, sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_equals_json_dumps(self, tree):
        assert to_json(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [
            {1: "a"},
            {"a": 1, 2: "b"},
            [{"a": {None: 0}}],
            {(1, 2): 3},
            {"a": {1, 2}},
            [b"bytes"],
            (object(),),
            {"a": [1, 2j]},
        ],
        ids=["int-key", "mixed-keys", "nested-none-key", "tuple-key", "set", "bytes", "object",
             "complex"],
    )
    def test_refuses_what_it_does_not_write(self, obj):
        with pytest.raises(TypeError):
            to_json(obj)


class TestSeedIndependence:
    # every document of the two commands that draw nothing at random
    SEEDLESS = [
        (command, path.name)
        for path in sorted(INPUTS.glob("*.json"))
        for kind, command in [("galois-datum", "qt-brauer"), ("involution-lattice", "real-torus")]
        if json.loads(path.read_text())["kind"] == kind
    ]

    @pytest.mark.parametrize("command, name", SEEDLESS)
    def test_output_does_not_depend_on_the_seed(self, command, name):
        outputs = {run(["--json", "--seed", seed, command, str(INPUTS / name)]) for seed in "07"}
        ((code, _),) = outputs
        assert code == EXIT_OK


class TestStdlibOnly:
    def test_only_stdlib_modules_load(self):
        # -S keeps the site directory, and the modules its .pth files import,
        # out of the process
        script = (
            "import sys; sys.path.insert(0, 'src'); import torusbrauer.cli as cli; "
            "cli.run(['--json', 'd2', 'examples_cli/ind_extension.json']); "
            "cli.run(['selftest', '--suite', 'intlat']); "
            "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))"
        )
        argv = [sys.executable, "-S", "-c", script]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        loaded = set(out.split()) - {"__main__"}
        assert "torusbrauer" in loaded
        assert loaded - {"torusbrauer"} <= sys.stdlib_module_names


class TestRankOneLattice:
    """d2 and v2 on the C2 sign lattice of rank 1, where Lambda^2 N = 0,
    pinned as they were printed before v2 and the pushforward check lost
    their rank-below-2 branches."""

    DOC = {"kind": "split-extension", "pi": {"cyclic": 2}, "action": [[[1]], [[-1]]],
           "coefficients": {"mu": 4, "chi": [1, 3]}}
    INPUT = '"input": {\n    "kind": "split-extension",\n    "pi_order": 2,\n    "rank": 1\n  }'
    OUTPUT = {
        "d2": ('{\n  "command": "d2",\n  "d2_matrix": [\n    []\n  ],\n  "d2_zero": true,\n  '
               + INPUT + ',\n  "pushforward_formula": [],\n  "source": "0",\n  "target": "Z/2",\n'
               '  "version": "0.1.0"\n}\n'),
        "v2": ('{\n  "command": "v2",\n  ' + INPUT + ',\n  "pushforward_formula": [],\n'
               '  "v2_coords": [],\n  "v2_zero": true,\n  "version": "0.1.0"\n}\n'),
    }

    @pytest.mark.parametrize("command", ["d2", "v2"])
    def test_json(self, tmp_path, command):
        path = write(tmp_path, "rank1.json", self.DOC)
        for seed in ("0", "7"):
            assert run(["--json", "--seed", seed, command, path]) == (EXIT_OK, self.OUTPUT[command])


class TestReportedValues:
    def test_qi_group(self):
        _, text = run(["--json", "qt-brauer", str(INPUTS / "qi_datum.json")])
        doc = json.loads(text)
        assert doc["group"] == "Z/4"
        assert doc["symbols"] == ["cores_{E(1,2)/k} (y1, y2 - y1)_{4}"]
        assert doc["agreement"] is True

    def test_s3_group(self):
        _, text = run(["--json", "qt-brauer", str(INPUTS / "s3_datum.json")])
        assert json.loads(text)["group"] == "Z/2"

    def test_real_torus_levels(self):
        code, text = run(
            ["--json", "real-torus", str(INPUTS / "ind_lattice.json"), "--modulus", "2,4"]
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["all_d2_zero"] is True
        assert doc["decomposition"] == {"trivial": 0, "sign": 0, "induced": 1}

    def test_d2_and_v2(self):
        code, text = run(["--json", "d2", str(INPUTS / "ind_extension.json")])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["d2_zero"] is True and doc["pushforward_formula"] == [True]
        code, text = run(["--json", "v2", str(INPUTS / "ind_extension.json")])
        assert code == EXIT_OK
        assert json.loads(text)["v2_zero"] is True

    def test_selftest_filtered(self):
        code, text = run(["--json", "selftest", "--suite", "twisted"])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert [s["suite"] for s in doc["suites"]] == ["twisted"]
        assert doc["all_passed"] is True

    def test_selftest_deterministic(self):
        a = run(["--json", "--seed", "7", "selftest", "--suite", "brauer"])
        b = run(["--json", "--seed", "7", "selftest", "--suite", "brauer"])
        # timings may differ; compare everything else
        da, db = json.loads(a[1]), json.loads(b[1])
        for d in (da, db):
            for s in d["suites"]:
                s.pop("seconds")
        assert da == db and a[0] == b[0] == EXIT_OK


class TestExitCodes:
    def test_missing_field_schema(self, tmp_path):
        path = write(tmp_path, "bad.json", {"kind": "galois-datum", "r": 2})
        code, _ = run(["qt-brauer", path])
        assert code == EXIT_SCHEMA

    NOT_JSON = {
        "syntax": b"{nope",
        # the decoder recurses once per level: RecursionError
        "nested 100,000 deep": b"[" * 100_000,
        # over Python's 4,300-digit limit on int(): ValueError
        "5,000-digit integer": b"1" * 5_000,
        # UnicodeDecodeError
        "not UTF-8": b'{"kind": "\xff"}',
    }

    def test_not_json_schema(self, tmp_path):
        p = tmp_path / "broken.json"
        for name, content in self.NOT_JSON.items():
            p.write_bytes(content)
            code, out = run(["qt-brauer", str(p)])
            assert code == EXIT_SCHEMA, name
            assert out.startswith("input error: ") and out.count("\n") == 1, name

    def test_missing_file_schema(self):
        assert run(["qt-brauer", "/nonexistent/input.json"])[0] == EXIT_SCHEMA

    def test_odd_modulus_validation(self, tmp_path):
        path = write(
            tmp_path, "odd.json", {"kind": "galois-datum", "r": 2, "M": 3, "generators": []}
        )
        assert run(["qt-brauer", path])[0] == EXIT_VALIDATION

    def test_non_involution_validation(self, tmp_path):
        path = write(tmp_path, "ni.json", {"kind": "involution-lattice", "matrix": [[2]]})
        assert run(["real-torus", path])[0] == EXIT_VALIDATION

    def test_bad_modulus_flag_schema(self, tmp_path):
        path = write(
            tmp_path, "ind.json", {"kind": "involution-lattice", "matrix": [[0, 1], [1, 0]]}
        )
        assert run(["real-torus", path, "--modulus", "x"])[0] == EXIT_SCHEMA

    def test_codes_distinct(self):
        assert len({EXIT_OK, EXIT_SCHEMA, EXIT_VALIDATION, EXIT_DISAGREEMENT}) == 4

    @pytest.mark.parametrize(
        "generator",
        [
            {"perm": [1, 0], "unit": 3},  # shorter than r
            {"perm": [0, 0, 1], "unit": 3},  # repeated entry
            {"perm": [0, 1, 3], "unit": 3},  # out of range
            {"perm": [1, 0, 2], "unit": 2},  # unit not coprime to M
        ],
        ids=["short-perm", "repeated-perm", "out-of-range-perm", "non-unit"],
    )
    def test_bad_generator_schema(self, tmp_path, generator):
        doc = {"kind": "galois-datum", "r": 3, "M": 4, "generators": [generator]}
        code, text = run(["qt-brauer", write(tmp_path, "gen.json", doc)])
        assert code == EXIT_SCHEMA
        assert text.startswith("input error: ") and text.count("\n") == 1

    def test_ragged_matrix_schema(self, tmp_path):
        doc = {"kind": "involution-lattice", "matrix": [[0, 1], [1]]}
        assert run(["real-torus", write(tmp_path, "ragged.json", doc)])[0] == EXIT_SCHEMA

    def test_non_square_matrix_schema(self, tmp_path):
        doc = {"kind": "involution-lattice", "matrix": [[1, 0]]}
        code, text = run(["real-torus", write(tmp_path, "wide.json", doc)])
        assert code == EXIT_SCHEMA
        assert "square" in text and text.count("\n") == 1

    @pytest.mark.parametrize("command", ["d2", "v2"])
    def test_non_square_action_validation(self, tmp_path, command):
        # the shape is checked before the identity is compared with rho(0)
        doc = {"kind": "split-extension", "pi": {"cyclic": 2},
               "action": [[[1, 0]], [[1, 0]]], "coefficients": {"mu": 2, "chi": [1, 1]}}
        code, text = run([command, write(tmp_path, "wide.json", doc)])
        assert code == EXIT_VALIDATION
        assert text == "validation error: action matrix has wrong shape\n"

    def test_lattice_coefficients_not_a_homomorphism(self, tmp_path):
        # coefficients with no modulus are a lattice, and are named so
        doc = {"kind": "split-extension", "pi": {"cyclic": 2},
               "action": [[[1]], [[-1]]],
               "coefficients": {"rank": 1, "modulus": None, "matrices": [[[1]], [[2]]]}}
        code, text = run(["d2", write(tmp_path, "lattice.json", doc)])
        assert code == EXIT_VALIDATION
        assert text == "validation error: lattice action is not a homomorphism\n"

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("real-torus", {"kind": "involution-lattice", "matrix": [[True, 0], [0, -1]]}),
            ("qt-brauer", {"kind": "galois-datum", "r": 2, "M": 4,
                           "generators": [{"perm": [True, False], "unit": 3}]}),
            ("d2", {"kind": "split-extension", "pi": {"cyclic": 2},
                    "action": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                    "coefficients": {"mu": 2, "chi": [True, True]}}),
            ("d2", {"kind": "split-extension", "pi": {"table": [[0, True], [True, 0]]},
                    "action": [[[1]], [[1]]], "coefficients": {"mu": 2, "chi": [1, 1]}}),
        ],
        ids=["matrix", "perm", "chi", "table"],
    )
    def test_booleans_are_not_integers(self, tmp_path, command, doc):
        code, text = run([command, write(tmp_path, "bool.json", doc)])
        assert code == EXIT_SCHEMA
        assert text.startswith("input error: ") and text.count("\n") == 1

    @pytest.mark.parametrize("command", ["d2", "v2"])
    def test_empty_table_validation(self, tmp_path, command):
        doc = {"kind": "split-extension", "pi": {"table": []}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        code, text = run([command, write(tmp_path, "empty.json", doc)])
        assert code == EXIT_VALIDATION
        assert text == "validation error: malformed multiplication table\n"

    # refused before any coordinate pair is listed: r = 10^5 has 5 * 10^9
    @pytest.mark.parametrize("r", [MAX_RANK + 1, 100000, 10**9])
    def test_rank_over_cap_validation(self, tmp_path, r):
        doc = {"kind": "galois-datum", "r": r, "M": 4, "generators": []}
        code, text = run(["qt-brauer", write(tmp_path, "big_r.json", doc)])
        assert code == EXIT_VALIDATION
        assert text == f"validation error: rank r = {r} exceeds {MAX_RANK}\n"

    def test_rank_over_cap_with_generator_validation(self, tmp_path):
        # refused before the closure composes permutations of length r
        r = 10 * MAX_RANK
        doc = {"kind": "galois-datum", "r": r, "M": 4,
               "generators": [{"perm": [(i + 1) % r for i in range(r)], "unit": 3}]}
        code, text = run(["qt-brauer", write(tmp_path, "cycle.json", doc)])
        assert code == EXIT_VALIDATION and text.count("\n") == 1

    def test_level_m_over_cap_validation(self, tmp_path):
        doc = {"kind": "galois-datum", "r": 2, "M": 2**64, "generators": []}
        code, text = run(["qt-brauer", write(tmp_path, "big_m.json", doc)])
        assert code == EXIT_VALIDATION
        assert text == 'validation error: field "M" has 65 bits, above the 64-bit cap\n'

    def test_level_m_under_cap_runs(self, tmp_path):
        doc = {"kind": "galois-datum", "r": 2, "M": 2**64 - 2, "generators": []}
        code, text = run(["--json", "qt-brauer", write(tmp_path, "m.json", doc)])
        assert code == EXIT_OK
        assert json.loads(text)["invariant_factors"] == [2**64 - 2]

    def test_huge_prime_factor_of_m_runs(self, tmp_path):
        # M = 2(2^61 - 1): finding its primes by trial division took about
        # 1.5 * 10^9 steps; in a child process, so that such a run fails
        # here instead of hanging the suite
        M = 2 * (2**61 - 1)
        path = write(tmp_path, "prime_m.json", {"kind": "galois-datum", "r": 2, "M": M, "generators": []})
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run([sys.executable, "-m", "torusbrauer.cli", "qt-brauer", path],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert f"invariant_factors: [{M}]\n" in proc.stdout

    def test_oracle_size_over_cap_validation(self, tmp_path, monkeypatch):
        # refused before the pair module is built
        def no_module(*args):
            raise AssertionError("the pair module was built past the cap")

        monkeypatch.setattr(brauer, "pair_module", no_module)
        doc = {"kind": "galois-datum", "r": 80, "M": 2, "generators": []}
        code, text = run(["qt-brauer", write(tmp_path, "trivial80.json", doc)])
        assert code == EXIT_VALIDATION
        assert text == (
            "validation error: the oracle generators may hold 3160 x 3160 = 9985600 entries, "
            f"above the {MAX_ORACLE_ENTRIES} cap\n"
        )

    def test_oracle_size_of_the_120_cycle_passes_the_cap(self, monkeypatch):
        # 60 orbits x 7,140 pairs: the analysis goes on to the pair module
        class Passed(Exception):
            pass

        def passed(*args):
            raise Passed

        monkeypatch.setattr(brauer, "pair_module", passed)
        cycle = tuple((i + 1) % MAX_RANK for i in range(MAX_RANK))
        with pytest.raises(Passed):
            BrauerAnalysis(GaloisDatum.from_generators(MAX_RANK, 4, [(cycle, 3)]))

    def test_rank_over_cap_direct_datum(self):
        r = MAX_RANK + 1
        with pytest.raises(ValidationError, match=f"exceeds {MAX_RANK}"):
            GaloisDatum(FiniteGroup.trivial(), r, 2, (tuple(range(r)),), (1,))

    # refused before S * S is formed, an involution or not
    @pytest.mark.parametrize("n", [MAX_INVOLUTION_RANK + 1, 4 * MAX_INVOLUTION_RANK])
    def test_involution_rank_over_cap_validation(self, tmp_path, monkeypatch, n):
        def no_product(*args, **kwargs):
            raise AssertionError("a product was formed past the cap")

        monkeypatch.setattr(IntMatrix, "mul", no_product)
        for matrix in (IntMatrix.identity(n).entries, [[1] * n] * n):
            doc = {"kind": "involution-lattice", "matrix": matrix}
            code, text = run(["real-torus", write(tmp_path, "big_s.json", doc)])
            assert code == EXIT_VALIDATION
            assert text == f"validation error: involution rank {n} exceeds {MAX_INVOLUTION_RANK}\n"

    def test_involution_rank_at_cap_parses(self):
        ident = IntMatrix.identity(MAX_INVOLUTION_RANK)
        doc = {"kind": "involution-lattice", "matrix": [list(row) for row in ident.entries]}
        assert parse_involution(doc) == ident

    # refused before the document is read: the input does not exist
    @pytest.mark.parametrize("count", [MAX_REAL_TORUS_LEVELS + 1, 1000])
    def test_real_torus_levels_over_cap_validation(self, tmp_path, count):
        levels = ",".join(str(n) for n in range(2, count + 2))
        code, text = run(["real-torus", str(tmp_path / "absent.json"), "--modulus", levels])
        assert code == EXIT_VALIDATION
        assert text == f"validation error: {count} levels exceed {MAX_REAL_TORUS_LEVELS}\n"

    def test_real_torus_levels_at_cap_run(self, tmp_path):
        doc = {"kind": "involution-lattice", "matrix": [[0, 1], [1, 0]]}
        levels = ",".join(["2"] * MAX_REAL_TORUS_LEVELS)
        path = write(tmp_path, "swap.json", doc)
        code, text = run(["--json", "real-torus", path, "--modulus", levels])
        assert code == EXIT_OK
        assert len(json.loads(text)["levels"]) == MAX_REAL_TORUS_LEVELS

    # refused before the document is read
    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, 10**4200], ids=["cap+1", "4201-digits"])
    def test_real_torus_level_over_cap_validation(self, tmp_path, level):
        code, text = run(["real-torus", str(tmp_path / "absent.json"), "--modulus", f"2,{level}"])
        assert code == EXIT_VALIDATION
        bits = level.bit_length()
        assert text == (
            f"validation error: a --modulus level has {bits} bits, above the 64-bit cap\n"
        )

    def test_real_torus_level_at_cap_run(self):
        code, text = run(
            ["--json", "real-torus", str(INPUTS / "ind_lattice.json"), "--modulus", str(MAX_LEVEL)]
        )
        assert code == EXIT_OK
        assert [level["n"] for level in json.loads(text)["levels"]] == [MAX_LEVEL]

    @pytest.mark.parametrize(
        "field, coefficients",
        [
            ("mu", {"mu": MAX_LEVEL + 1, "chi": [1, 1]}),
            ("mu", {"mu": 10**4200, "chi": [1, 1]}),
            ("modulus", {"rank": 1, "modulus": MAX_LEVEL + 1, "matrices": [[[1]], [[1]]]}),
        ],
        ids=["mu-cap+1", "mu-4201-digits", "modulus-cap+1"],
    )
    @pytest.mark.parametrize("command", ["d2", "v2"])
    def test_level_over_cap_validation(self, tmp_path, command, field, coefficients):
        doc = json.loads((INPUTS / "ind_extension.json").read_text())
        doc["coefficients"] = coefficients
        code, text = run([command, write(tmp_path, "huge.json", doc)])
        assert code == EXIT_VALIDATION
        assert text.startswith(f'validation error: field "{field}" has ') and text.count("\n") == 1

    @pytest.mark.parametrize(
        "coefficients",
        [
            {"mu": MAX_LEVEL, "chi": [1, 1]},
            {"rank": 1, "modulus": MAX_LEVEL, "matrices": [[[1]], [[1]]]},
        ],
        ids=["mu", "modulus"],
    )
    def test_level_at_cap_d2(self, tmp_path, coefficients):
        doc = json.loads((INPUTS / "ind_extension.json").read_text())
        doc["coefficients"] = coefficients
        assert run(["d2", write(tmp_path, "cap.json", doc)])[0] == EXIT_OK

    def test_cyclic_over_cap_validation(self, tmp_path):
        # refused before the 10^6 x 10^6 table is built
        doc = {"kind": "split-extension", "pi": {"cyclic": 1000000}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        code, text = run(["d2", write(tmp_path, "c1e6.json", doc)])
        assert code == EXIT_VALIDATION and text.count("\n") == 1

    @pytest.mark.parametrize(
        "action, mu, source, target",
        [
            ([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 1000000007, "0", "0"),
            ([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 2000000014, "Z/2", "0"),
            ([[[1]], [[-1]]], 2000000014, "0", "Z/2"),
        ],
    )
    def test_large_level_d2(self, tmp_path, action, mu, source, target):
        # the work of a mod-n subquotient does not grow with n
        doc = {"kind": "split-extension", "pi": {"cyclic": 2}, "action": action,
               "coefficients": {"mu": mu, "chi": [1, 1]}}
        path = write(tmp_path, "big.json", doc)
        code, text = run(["--json", "d2", path])
        assert code == EXIT_OK
        out = json.loads(text)
        assert (out["source"], out["target"], out["d2_zero"]) == (source, target, True)
        code, text = run(["--json", "v2", path])
        assert code == EXIT_OK and json.loads(text)["v2_zero"] is True

    def test_large_level_real_torus(self):
        code, text = run(
            ["--json", "real-torus", str(INPUTS / "ind_lattice.json"), "--modulus", "1000000007"]
        )
        assert code == EXIT_OK
        (level,) = json.loads(text)["levels"]
        assert level["n"] == 1000000007 and level["d2_zero"] is True

    def test_zero_modulus_flag_schema(self):
        path = str(INPUTS / "ind_lattice.json")
        assert run(["real-torus", path, "--modulus", "0"])[0] == EXIT_SCHEMA

    def test_cyclic_zero_schema(self, tmp_path):
        doc = {"kind": "split-extension", "pi": {"cyclic": 0}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        assert run(["d2", write(tmp_path, "c0.json", doc)])[0] == EXIT_SCHEMA

    @pytest.mark.parametrize("degree", [-2, 0])
    def test_symmetric_nonpositive_schema(self, tmp_path, degree):
        doc = {"kind": "split-extension", "pi": {"symmetric": degree}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        code, text = run(["d2", write(tmp_path, "sym.json", doc)])
        assert code == EXIT_SCHEMA
        assert '"symmetric"' in text and text.count("\n") == 1

    @pytest.mark.parametrize("value", [False, 1, "yes", None, {}])
    def test_klein_other_than_true_schema(self, tmp_path, value):
        doc = {"kind": "split-extension", "pi": {"klein": value}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        code, text = run(["d2", write(tmp_path, "klein.json", doc)])
        assert code == EXIT_SCHEMA
        assert '"klein"' in text and text.count("\n") == 1

    def test_symmetric_over_cap_validation(self, tmp_path):
        doc = {"kind": "split-extension", "pi": {"symmetric": 8}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        code, text = run(["d2", write(tmp_path, "s8.json", doc)])
        assert code == EXIT_VALIDATION
        assert text.count("\n") == 1

    # the cap is checked on n! before any permutation is listed: 12! tuples
    # would exhaust memory, and 10^9! is never computed
    @pytest.mark.parametrize("degree", [12, 20, 10**9])
    def test_large_symmetric_validation(self, tmp_path, degree):
        doc = {"kind": "split-extension", "pi": {"symmetric": degree}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
        code, text = run(["d2", write(tmp_path, "sym.json", doc)])
        assert code == EXIT_VALIDATION
        assert text.count("\n") == 1

    # a cyclic group of order 9999 takes tens of seconds to build; a short
    # per-element list is refused against the order the spec states
    @pytest.mark.parametrize(
        "pi, action, coefficients",
        [
            ({"cyclic": 9999}, [[[1]]], {"mu": 2, "chi": [1]}),
            ({"cyclic": 9999}, [[[1]]] * 9999, {"mu": 2, "chi": [1]}),
            ({"cyclic": 9999}, [[[1]]] * 9999, {"rank": 1, "matrices": [[[1]]]}),
            ({"symmetric": 7}, [[[1]]], {"mu": 2, "chi": [1]}),
            ({"klein": True}, [[[1]]] * 3, {"mu": 2, "chi": [1] * 4}),
        ],
        ids=["action", "chi", "matrices", "symmetric", "klein"],
    )
    @pytest.mark.parametrize("command", ["d2", "v2"])
    def test_short_list_refused_before_the_group_is_built(
        self, tmp_path, command, pi, action, coefficients
    ):
        doc = {"kind": "split-extension", "pi": pi, "action": action,
               "coefficients": coefficients}
        path = write(tmp_path, "short.json", doc)
        start = time.perf_counter()
        code, text = run([command, path])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_SCHEMA
        assert text.startswith("input error: ") and text.count("\n") == 1

    def test_mu_zero_schema(self, tmp_path):
        doc = json.loads((INPUTS / "ind_extension.json").read_text())
        doc["coefficients"]["mu"] = 0
        assert run(["d2", write(tmp_path, "mu0.json", doc)])[0] == EXIT_SCHEMA

    def test_other_zero_moduli_schema(self, tmp_path):
        doc = {"kind": "galois-datum", "r": 2, "M": 0, "generators": []}
        assert run(["qt-brauer", write(tmp_path, "m0.json", doc)])[0] == EXIT_SCHEMA
        doc = json.loads((INPUTS / "ind_extension.json").read_text())
        doc["coefficients"] = {"rank": 1, "modulus": 0, "matrices": [[[1]], [[1]]]}
        assert run(["d2", write(tmp_path, "mod0.json", doc)])[0] == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "field, coefficients",
        [
            ("mu", {"mu": 1, "chi": [1, 1]}),
            ("modulus", {"rank": 1, "modulus": 1, "matrices": [[[1]], [[1]]]}),
        ],
    )
    @pytest.mark.parametrize("command", ["d2", "v2"])
    def test_level_one_schema(self, tmp_path, command, field, coefficients):
        doc = json.loads((INPUTS / "ind_extension.json").read_text())
        doc["coefficients"] = coefficients
        code, text = run([command, write(tmp_path, "level1.json", doc)])
        assert code == EXIT_SCHEMA
        assert f'"{field}"' in text and text.count("\n") == 1

    def test_level_one_flag_schema(self):
        code, text = run(["real-torus", str(INPUTS / "ind_lattice.json"), "--modulus", "2,1"])
        assert code == EXIT_SCHEMA
        assert "--modulus" in text

    @pytest.mark.parametrize(
        "command, stem, expected, given",
        [
            ("qt-brauer", "ind_extension", "galois-datum", "split-extension"),
            ("real-torus", "qi_datum", "involution-lattice", "galois-datum"),
            ("d2", "ind_lattice", "split-extension", "involution-lattice"),
            ("v2", "qi_datum", "split-extension", "galois-datum"),
        ],
    )
    def test_kind_must_match_command(self, command, stem, expected, given):
        code, text = run([command, str(INPUTS / f"{stem}.json")])
        assert code == EXIT_SCHEMA
        assert f'"{expected}"' in text and f'"{given}"' in text


class TestParserReuse:
    """One parser serves every call of the process; each call must see only
    its own arguments."""

    ARGVS = [
        ["--json", "real-torus", str(INPUTS / "ind_lattice.json"), "--modulus", "3"],
        ["real-torus", str(INPUTS / "ind_lattice.json")],
        ["--json", "--seed", "5", "selftest", "--suite", "intlat"],
        ["selftest", "--suite", "cohom"],
        ["--json", "qt-brauer", str(INPUTS / "qi_datum.json")],
        ["qt-brauer", str(INPUTS / "s3_datum.json")],
        ["--json", "real-torus", str(INPUTS / "ind_lattice.json")],
    ]

    @staticmethod
    def _untimed(text):
        return [line for line in text.splitlines() if "seconds" not in line]

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_no_value_leaks_between_calls(self):
        forward = [run(argv) for argv in self.ARGVS]
        backward = [run(argv) for argv in reversed(self.ARGVS)][::-1]
        for (code_a, text_a), (code_b, text_b) in zip(forward, backward):
            assert code_a == code_b == EXIT_OK
            assert self._untimed(text_a) == self._untimed(text_b)
        fresh = build_parser.__wrapped__()
        for argv in self.ARGVS:
            assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        # text after JSON, the default levels after --modulus 3, the
        # default seed after --seed 5
        assert forward[1][1].startswith("command: real-torus\n")
        assert [lv["n"] for lv in json.loads(forward[0][1])["levels"]] == [3]
        assert [lv["n"] for lv in json.loads(forward[6][1])["levels"]] == [2, 4]
        assert "seed: 0" in forward[3][1]


class TestCachePolicy:
    def test_one_twisted_resolution_per_lattice(self, tmp_path):
        # every memo read below starts empty, whatever ran before
        twisted_resolution.cache_clear()
        v2.cache_clear()
        doc = json.loads((INPUTS / "ind_extension.json").read_text())
        for level in (2, 4):
            doc["coefficients"]["mu"] = level
            path = write(tmp_path, f"mu{level}.json", doc)
            for command in ("d2", "v2"):
                assert run([command, path])[0] == EXIT_OK
        info = twisted_resolution.cache_info()
        assert info.misses == 1 and info.hits > 0
        # one universal class per lattice, across levels and commands
        info = v2.cache_info()
        assert info.misses == 1 and info.hits > 0


class TestRealTorusMemo:
    """The real-torus levels are computed once per type and list of levels;
    the decomposition of the input runs on every call."""

    LEVELS = (2, 3, 4, 8)

    def test_one_computation_per_type(self, tmp_path, monkeypatch):
        d2_02 = spectral.d2_02
        levels = []
        monkeypatch.setattr(spectral, "d2_02", lambda ext: levels.append(ext.M.modulus) or d2_02(ext))
        real_torus_levels.cache_clear()
        # type (1, 1, 0): canonical, under a signed permutation, and under the
        # ladder [[1,1],[1,2]]
        for name, matrix in [("canonical", [[1, 0], [0, -1]]), ("signed", [[-1, 0], [0, 1]]),
                             ("ladder", [[3, -2], [4, -3]])]:
            path = write(tmp_path, f"{name}.json", {"kind": "involution-lattice", "matrix": matrix})
            code, text = run(["--json", "real-torus", path, "--modulus", "2,3,4,8"])
            assert code == EXIT_OK
            assert json.loads(text)["decomposition"] == {"trivial": 1, "sign": 1, "induced": 0}
        info = real_torus_levels.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert levels == list(self.LEVELS)

    def test_memoised_levels_match_a_fresh_d2(self):
        real_torus_levels.cache_clear()
        types = involution_types(3)
        assert len(types) == 12
        for ty in types:
            S0 = canonical_involution(*ty)
            real_torus_check(S0, self.LEVELS)
            P = ladder(2, S0.rows)  # the identity on rank 1
            conj = P.mul(S0).mul(unimodular_inverse(P))
            rep = real_torus_check(conj, self.LEVELS)
            assert rep.decomposition == ty
            for n, lv in zip(self.LEVELS, rep.levels, strict=True):
                ref = real_d2(S0, n)
                assert lv.n == n
                assert lv.invariants == ref.source  # structure and generators
                assert lv.d2_is_zero == ref.is_zero()
        info = real_torus_levels.cache_info()
        assert (info.misses, info.hits) == (12, 12)

    def test_warm_memo_hides_no_error(self):
        real_torus_check(IntMatrix.identity(1), (2,))
        with pytest.raises(ValidationError, match="^matrix is not an involution$"):
            real_torus_check(IntMatrix.from_rows([[2]]), (2,))

    def test_new_level_list_is_computed(self):
        path = str(INPUTS / "ind_lattice.json")
        code, text = run(["--json", "real-torus", path, "--modulus", "4"])
        assert code == EXIT_OK
        assert [lv["n"] for lv in json.loads(text)["levels"]] == [4]
        code, text = run(["--json", "real-torus", path, "--modulus", "2,4"])
        assert code == EXIT_OK
        assert [lv["n"] for lv in json.loads(text)["levels"]] == [2, 4]


class TestChecksUnderOptimize:
    """`python -O` strips assert statements, so no check of the package may
    be one."""

    def test_no_assert_in_package(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted((ROOT / "src" / "torusbrauer").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_selftest_fails_under_optimize(self):
        # smith returns 2 D: the intlat suite must see U A V != D
        code = (
            "import dataclasses, sys\n"
            "import torusbrauer.intlat as intlat\n"
            "from torusbrauer.cli import main\n"
            "good = intlat.smith\n"
            "def bad(a, modulus=None):\n"
            "    s = good(a, modulus)\n"
            "    return dataclasses.replace(s, D=s.D.scale(2))\n"
            "intlat.smith = bad\n"
            "sys.exit(main(['selftest', '--suite', 'intlat']))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_DISAGREEMENT, proc.stdout + proc.stderr
        assert proc.stderr.startswith("disagreement: selftest suite failure: intlat: smith: ")


class TestSelftestCohom:
    def test_wrong_small_resolution_exits_4(self):
        # every engine on the resolution of a non-cyclic group reports Z/7 in
        # degrees 1 and 2; the cohom suite must name the group, the degree
        # and both structures
        code = (
            "import sys\n"
            "import torusbrauer.cohomology as cohomology\n"
            "from torusbrauer.cli import main\n"
            "from torusbrauer.intlat import FinAbGroup\n"
            "init = cohomology.GroupCohomology.__init__\n"
            "def wrong(self, *args, **kwargs):\n"
            "    init(self, *args, **kwargs)\n"
            "    if (isinstance(self.res, cohomology.SmallResolution)\n"
            "            and self.G.generator_if_cyclic() is None and self.degree >= 1):\n"
            "        self.group = FinAbGroup(0, (7,))\n"
            "cohomology.GroupCohomology.__init__ = wrong\n"
            "sys.exit(main(['selftest', '--suite', 'cohom']))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_DISAGREEMENT, proc.stdout + proc.stderr
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr == (
            "disagreement: selftest suite failure: cohom: "
            "H^1(V4, Z/2): small resolution Z/7 != bar Z/2 + Z/2\n"
        )

    def test_small_resolution_agrees(self):
        code, text = run(["--json", "selftest", "--suite", "cohom"])
        assert code == EXIT_OK and json.loads(text)["all_passed"]


class TestExitCodeClasses:
    def test_one_class_per_exit_code(self):
        assert set(TorusBrauerError.__subclasses__()) == {SchemaError, ValidationError, DisagreementError}

    def test_failed_internal_check_exits_4(self, monkeypatch):
        def fail(ext):
            raise DisagreementError("d_2 y = x has no solution")

        monkeypatch.setattr(cli, "d2_02", fail)  # the name cmd_d2 calls
        code, text = run(["d2", str(INPUTS / "s3_extension.json")])
        assert code == EXIT_DISAGREEMENT
        assert text == "disagreement: d_2 y = x has no solution\n"


class TestDisagreementMessage:
    def test_orders_failure_names_the_orbit(self, monkeypatch):
        monkeypatch.setattr(brauer, "_vector_order", lambda v, m: 0)
        code, text = run(["qt-brauer", str(INPUTS / "qi_datum.json")])
        assert code == EXIT_DISAGREEMENT
        assert text == (
            "disagreement: orders check failed: orbit of pair (1, 2) with "
            "n=4, n'=4, m_o=4: orbit sum has order 0\n"
        )

    @pytest.mark.parametrize(
        "check", ["structure", "generation", "orders", "representative_independence"]
    )
    def test_each_check_is_named(self, monkeypatch, check):
        monkeypatch.setattr(
            brauer.BrauerAnalysis, f"_{check}", lambda self: f"{self.orbits[0].describe()}: forced"
        )
        code, text = run(["qt-brauer", str(INPUTS / "s3_datum.json")])
        assert code == EXIT_DISAGREEMENT
        assert text == (
            f"disagreement: {check} check failed: orbit of pair (1, 2) with "
            "n=2, n'=2, m_o=2: forced\n"
        )


# ---------------------------------------------------------------------------
# the CLI contract under mutated documents
# ---------------------------------------------------------------------------

COMMANDS = {"galois-datum": ("qt-brauer",), "involution-lattice": ("real-torus",),
            "split-extension": ("d2", "v2")}
# small edge integers and a value of every other JSON type
REPLACEMENTS = (-1, 0, 1, 2, 3, 7, None, True, False, 1.5, "x", [], {})


def _paths(node, path=()):
    """The path of every node below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw, doc):
    """doc with one node dropped (a key, or a list truncated at an entry),
    duplicated (a list entry) or replaced by an edge integer or another
    JSON type."""
    doc = copy.deepcopy(doc)
    *head, last = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    edits = ["drop", "replace"] + (["duplicate"] if isinstance(parent, list) else [])
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        del parent[last if isinstance(parent, dict) else slice(last, None)]
    elif edit == "duplicate":
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = draw(st.sampled_from(REPLACEMENTS))
    return doc


class TestMutatedDocuments:
    """Every mutant of an example document ends in exit 0, 2, 3 or 4, with a
    one-line message when it fails, and no exception escapes `run`."""

    @pytest.mark.parametrize("stem", sorted(p.stem for p in INPUTS.glob("*.json")))
    def test_exit_codes_and_one_line_messages(self, stem, tmp_path_factory):
        doc = json.loads((INPUTS / f"{stem}.json").read_text())
        path = tmp_path_factory.mktemp(stem) / "mutant.json"

        @settings(max_examples=150, deadline=None, database=None)
        @given(mutants(doc))
        def check(mutant):
            path.write_text(json.dumps(mutant))
            for command in COMMANDS[doc["kind"]]:
                code, text = run([command, str(path)])
                assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_VALIDATION, EXIT_DISAGREEMENT)
                if code != EXIT_OK:
                    assert text.endswith("\n") and text.count("\n") == 1, text

        check()
