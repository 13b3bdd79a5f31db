"""Batch front door: structured input documents in, reports out.

One JSON object per input file, tagged by "kind" (qt-brauer reads a
galois-datum, real-torus an involution-lattice, d2 and v2 a split-extension):

* galois-datum: {"kind": "galois-datum", "r": 2, "M": 4,
                 "generators": [{"perm": [1, 0], "unit": 3}]}
* involution-lattice: {"kind": "involution-lattice", "matrix": [[0,1],[1,0]]}
* split-extension: {"kind": "split-extension",
                    "pi": {"cyclic": 2} | {"symmetric": 3} | {"klein": true}
                         | {"table": [[...]]},
                    "action": [one integer matrix per group element],
                    "coefficients": {"mu": 2, "chi": [1, 1]}
                                  | {"rank": k, "modulus": n or null,
                                     "matrices": [...]}}

Exit codes: 0 success, 2 malformed input, 3 invariant violation,
4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time

from . import __version__
from .brauer import BrauerAnalysis
from .cohomology import bar_cohomology, cohomology
from .errors import (
    DisagreementError,
    SchemaError,
    TorusBrauerError,
    ValidationError,
)
from .groups import (
    MAX_GROUP_ORDER,
    MAX_INVOLUTION_RANK,
    MAX_REAL_TORUS_LEVELS,
    CoeffModule,
    FiniteGroup,
    GaloisDatum,
    random_galois_datum,
    symmetric_order,
)
from .intlat import IntMatrix
from .spectral import (
    SplitExtensionSpec,
    pushforward_formula_check,
    d2_02,
    d2_source,
    real_torus_check,
    v2,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_DISAGREEMENT = 4


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------


def load_document(path: str, kind: str) -> dict:
    """The JSON object in `path`, which must be tagged with `kind`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read input: {e}") from e
    except (ValueError, RecursionError) as e:
        # ValueError: bad syntax, non-UTF-8 bytes or too long an integer
        raise SchemaError(f"input is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError('input must be a JSON object with a "kind" tag')
    if doc["kind"] != kind:
        raise SchemaError(f'expected a "{kind}" document, got kind {json.dumps(doc["kind"])}')
    return doc


def _is_int(x) -> bool:
    """A JSON integer: true and false are not read as 1 and 0."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require(doc: dict, key: str, typ):
    if key not in doc:
        raise SchemaError(f'missing field "{key}"')
    val = doc[key]
    if not (_is_int(val) if typ is int else isinstance(val, typ)):
        raise SchemaError(f'field "{key}" has the wrong type')
    return val


def _positive(doc: dict, key: str) -> int:
    val = _require(doc, key, int)
    if val < 1:
        raise SchemaError(f'field "{key}" must be a positive integer')
    return val


def _level(doc: dict, key: str) -> int:
    val = _require(doc, key, int)
    if val < 2:
        raise SchemaError(f'field "{key}" must be a level of at least 2')
    return val


def _matrix(data, what: str) -> IntMatrix:
    if (
        not isinstance(data, list)
        or not data
        or not all(
            isinstance(row, list)
            and row
            and len(row) == len(data[0])
            and all(_is_int(x) for x in row)
            for row in data
        )
    ):
        raise SchemaError(f"{what} must be a non-empty list of equally long integer rows")
    return IntMatrix.from_rows(data)


def parse_galois_datum(doc: dict) -> GaloisDatum:
    r = _require(doc, "r", int)
    M = _positive(doc, "M")
    gens = _require(doc, "generators", list)
    pairs = []
    for g in gens:
        if not isinstance(g, dict):
            raise SchemaError("each generator must be an object")
        perm = _require(g, "perm", list)
        unit = _require(g, "unit", int)
        if not all(_is_int(x) for x in perm):
            raise SchemaError("perm must be a list of integers")
        if sorted(perm) != list(range(r)):
            raise SchemaError(f"perm {perm} is not a permutation of 0..{r - 1}")
        if math.gcd(unit, M) != 1:
            raise SchemaError(f"unit {unit} is not coprime to M = {M}")
        pairs.append((tuple(perm), unit))
    return GaloisDatum.from_generators(r, M, pairs)


def parse_involution(doc: dict) -> IntMatrix:
    S = _matrix(_require(doc, "matrix", list), "matrix")
    if S.rows != S.cols:
        raise SchemaError(f"matrix must be square, got {S.rows} x {S.cols}")
    if S.rows > MAX_INVOLUTION_RANK:  # before S * S is formed
        raise ValidationError(f"involution rank {S.rows} exceeds {MAX_INVOLUTION_RANK}")
    return S


def parse_group(spec):
    """The order of the group a spec of pi names, read from the spec, and a
    function that builds the group.  An order over MAX_GROUP_ORDER may stand
    for a larger one: building refuses such a group at once."""
    if not isinstance(spec, dict):
        raise SchemaError("pi must be an object")
    if "cyclic" in spec:
        m = _positive(spec, "cyclic")
        return m, lambda: FiniteGroup.cyclic(m)
    if "symmetric" in spec:
        n = _positive(spec, "symmetric")
        return symmetric_order(n), lambda: FiniteGroup.symmetric(n)[0]
    if "klein" in spec:
        if spec["klein"] is not True:
            raise SchemaError('field "klein" must be true')
        c2 = FiniteGroup.cyclic(2)
        return 4, lambda: FiniteGroup.direct_product(c2, c2)
    if "table" in spec:
        table = _require(spec, "table", list)
        if not all(isinstance(row, list) and all(_is_int(x) for x in row) for row in table):
            raise SchemaError("pi.table must be a square integer table")
        return len(table), lambda: FiniteGroup(tuple(tuple(row) for row in table))
    raise SchemaError("pi needs one of: cyclic, symmetric, klein, table")


def parse_split_extension(doc: dict) -> SplitExtensionSpec:
    order, build = parse_group(_require(doc, "pi", dict))
    # the lists with one entry per element are checked against the order
    # before the group is built, which costs |pi|^2
    if order > MAX_GROUP_ORDER:
        build()  # refuses the group
    action = _require(doc, "action", list)
    if len(action) != order:
        raise SchemaError("one action matrix per group element required")
    mats = tuple(_matrix(m, "action matrix") for m in action)
    coeff = _require(doc, "coefficients", dict)
    if "mu" in coeff:
        n = _level(coeff, "mu")
        chi = _require(coeff, "chi", list)
        if len(chi) != order or not all(_is_int(x) for x in chi):
            raise SchemaError("chi must list one unit per group element")
    else:
        rank = _require(coeff, "rank", int)
        modulus = None if coeff.get("modulus") is None else _level(coeff, "modulus")
        mlist = _require(coeff, "matrices", list)
        if len(mlist) != order:
            raise SchemaError("one coefficient matrix per group element required")
        cmats = [_matrix(m, "coefficient matrix") for m in mlist]
    pi = build()
    N = CoeffModule(pi, mats[0].rows, None, mats)
    if "mu" in coeff:
        M = CoeffModule.mu(pi, n, tuple(chi))
    else:
        M = CoeffModule.make(pi, rank, modulus, cmats)
    return SplitExtensionSpec(N, M)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def render_symbol(sym) -> str:
    i, j = sym.pair
    second = f"y{j + 1} - y{i + 1}" if sym.second_argument == "y_j - y_i" else f"y{j + 1}"
    return f"cores_{{E({i + 1},{j + 1})/k}} (y{i + 1}, {second})_{{{sym.modulus}}}"


def emit(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {_fmt(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {_fmt(v)}")

    walk(report)
    return "\n".join(lines) + "\n"


def _is_scalar_list(v):
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v
    )


def _fmt(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_qt_brauer(doc: dict) -> dict:
    analysis = BrauerAnalysis(parse_galois_datum(doc))
    datum = analysis.datum
    failures = analysis.failures()
    report = {
        "command": "qt-brauer",
        "version": __version__,
        "input": {"kind": "galois-datum", "r": datum.r, "M": datum.M},
        "group": analysis.group.describe(),
        "invariant_factors": list(analysis.group.torsion),
        "symbols": [render_symbol(s) for s in analysis.symbols],
        "orbits": [
            {
                "pair": [o.pair[0] + 1, o.pair[1] + 1],
                "orbit_size": len(o.orbit),
                "quadratic": o.quadratic,
                "n": o.n,
                "n_prime": o.n_prime,
                "order": o.m_o,
                "stabilizer": list(o.stabilizer_ordered),
            }
            for o in analysis.orbits
        ],
        "oracle": analysis.oracle.describe(),
        "oracle_generators": [list(g) for g in analysis.oracle.generators],
        "agreement": analysis.agreement,
        "basis_checks": {
            name: name not in failures for name in ("structure", "generation", "orders")
        },
        "representative_independence": "representative_independence" not in failures,
    }
    if failures:
        name, detail = next(iter(failures.items()))
        raise DisagreementError(f"{name} check failed: {detail}")
    return report


def cmd_real_torus(doc: dict, moduli) -> dict:
    S = parse_involution(doc)
    report = real_torus_check(S, moduli)
    levels = [
        {"n": lv.n, "d2_zero": lv.d2_is_zero, "invariants": lv.invariants.describe()}
        for lv in report.levels
    ]
    dec = report.decomposition
    return {
        "command": "real-torus",
        "version": __version__,
        "input": {"kind": "involution-lattice", "rank": S.rows},
        "decomposition": {"trivial": dec[0], "sign": dec[1], "induced": dec[2]},
        "levels": levels,
        "all_d2_zero": all(level["d2_zero"] for level in levels),
    }


def cmd_d2(doc: dict, rng) -> dict:
    ext = parse_split_extension(doc)
    rep = d2_02(ext)
    verdicts = pushforward_formula_check(ext, rep.source.generators, rng=rng)
    return {
        "command": "d2",
        "version": __version__,
        "input": {"kind": "split-extension", "pi_order": ext.pi.order, "rank": ext.N.rank},
        "source": rep.source.describe(),
        "target": rep.target.describe(),
        "d2_matrix": [list(row) for row in rep.matrix.entries],
        "d2_zero": rep.is_zero(),
        "pushforward_formula": verdicts,
    }


def cmd_v2(doc: dict, rng) -> dict:
    ext = parse_split_extension(doc)
    cls = v2(ext.N)
    verdicts = pushforward_formula_check(ext, d2_source(ext).generators, rng=rng)
    return {
        "command": "v2",
        "version": __version__,
        "input": {"kind": "split-extension", "pi_order": ext.pi.order, "rank": ext.N.rank},
        "v2_coords": list(cls.coords()),
        "v2_zero": cls.is_zero(),
        "pushforward_formula": verdicts,
    }


def _suite_intlat(rng):
    from .intlat import cokernel, smith

    for _ in range(25):
        a = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        )
        s = smith(a)
        if s.U.mul(a).mul(s.V) != s.D:
            raise DisagreementError(f"smith: U A V != D for A = {[list(r) for r in a.entries]}")
        cokernel(a)


def _suite_cohom(rng):
    # the engine, on each group's free resolution (the periodic terms of a
    # cyclic group, the picked ones of V4 and S3), against the bar complex
    c2 = FiniteGroup.cyclic(2)
    groups = [(f"C{m}", FiniteGroup.cyclic(m)) for m in (2, 3, 4)]
    groups += [("V4", FiniteGroup.direct_product(c2, c2)), ("S3", FiniteGroup.symmetric(3)[0])]
    for name, g in groups:
        for m in (2, 3, 4):
            mod = CoeffModule.trivial(g, 1, m)
            for q in range(3):
                small = cohomology(g, mod, q)
                bar = bar_cohomology(g, mod, q)
                if not small.group.same_structure(bar.group):
                    raise DisagreementError(
                        f"H^{q}({name}, Z/{m}): small resolution {small.group} != bar {bar.group}"
                    )


def _suite_twisted(rng):
    from .groups import permutation_lattice
    from .spectral import twisted_resolution

    c2 = FiniteGroup.cyclic(2)
    swap = CoeffModule(
        c2, 2, None, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]]))
    )
    s3 = permutation_lattice(GaloisDatum.from_generators(3, 2, [((1, 0, 2), 1), ((0, 2, 1), 1)]))
    # on the periodic terms of C2 and the picked ones of S3
    for N in (swap, s3):
        twisted_resolution(N).verify_d_squared()  # raises unless d^2 = 0
    if not v2(swap).is_zero():
        raise DisagreementError("v2 of the C2 swap lattice is not zero")


def _suite_brauer(rng):
    for _ in range(8):
        failures = BrauerAnalysis(random_galois_datum(rng)).failures()
        if failures:
            raise DisagreementError(f"random sweep found an oracle mismatch: {failures}")


SUITES = {
    "intlat": _suite_intlat,
    "cohom": _suite_cohom,
    "twisted": _suite_twisted,
    "brauer": _suite_brauer,
}


def cmd_selftest(suite_filter, seed: int) -> dict:
    results = []
    failures = []
    for name, fn in SUITES.items():
        if suite_filter and name != suite_filter:
            continue
        rng = random.Random(seed)
        t0 = time.time()
        try:
            fn(rng)
            passed = True
        except TorusBrauerError as e:
            passed = False
            failures.append(f"{name}: {e}")
        results.append(
            {"suite": name, "passed": passed, "seconds": round(time.time() - t0, 2)}
        )
    report = {
        "command": "selftest",
        "version": __version__,
        "seed": seed,
        "suites": results,
        "all_passed": not failures,
    }
    if failures:
        raise DisagreementError("selftest suite failure: " + "; ".join(failures))
    return report


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` gives each call a fresh
    namespace, so no parsed value reaches the next call."""
    p = argparse.ArgumentParser(
        prog="torusbrauer",
        description="exact Brauer-group and spectral-differential computations",
    )
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qt-brauer", help="symbol basis with oracle verification")
    q.add_argument("input")

    r = sub.add_parser("real-torus", help="second-page vanishing per level")
    r.add_argument("input")
    r.add_argument(
        "--modulus",
        default="2,4",
        help="comma-separated levels n (default: 2,4)",
    )

    d = sub.add_parser("d2", help="second-page differential of a split extension")
    d.add_argument("input")

    v = sub.add_parser("v2", help="universal degree-two class of the lattice")
    v.add_argument("input")

    s = sub.add_parser("selftest", help="run the invariant suites at desk scale")
    s.add_argument("--suite", choices=sorted(SUITES), default=None)
    return p


def run(argv) -> tuple[int, str]:
    args = build_parser().parse_args(argv)
    rng = random.Random(args.seed)
    try:
        if args.command == "qt-brauer":
            report = cmd_qt_brauer(load_document(args.input, "galois-datum"))
        elif args.command == "real-torus":
            try:
                moduli = [int(x) for x in args.modulus.split(",") if x]
            except ValueError as e:
                raise SchemaError("--modulus must be a comma-separated int list") from e
            if not moduli:
                raise SchemaError("--modulus must name at least one level")
            if min(moduli) < 2:
                raise SchemaError("--modulus levels must be at least 2")
            if len(moduli) > MAX_REAL_TORUS_LEVELS:  # each level runs its own d2
                raise ValidationError(f"{len(moduli)} levels exceed {MAX_REAL_TORUS_LEVELS}")
            report = cmd_real_torus(load_document(args.input, "involution-lattice"), moduli)
        elif args.command == "d2":
            report = cmd_d2(load_document(args.input, "split-extension"), rng)
        elif args.command == "v2":
            report = cmd_v2(load_document(args.input, "split-extension"), rng)
        else:
            report = cmd_selftest(args.suite, args.seed)
    except SchemaError as e:
        return EXIT_SCHEMA, f"input error: {e}\n"
    except DisagreementError as e:
        return EXIT_DISAGREEMENT, f"disagreement: {e}\n"
    except ValidationError as e:
        return EXIT_VALIDATION, f"validation error: {e}\n"
    return EXIT_OK, emit(report, args.json)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
