"""The three benchmark workloads: seeded input documents and answer checks.

A workload is a list of operations.  Each operation is one CLI call on a
JSON document the benchmark writes; `check` judges every output against
`oracles`, which shares no code with the program.  Five documents are
malformed on purpose: the CLI should refuse them with exit 2 or 3 and a
one-line message.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from oracles import (
    block_diag,
    brauer_expectation,
    close_galois,
    cyclic_h2_order,
    fixed_count,
    group_factors,
    group_order,
    hom_action,
    identity,
    matmul,
    permutation_matrix,
    scale,
    shapiro_h2_order,
)


@dataclass
class Op:
    label: str
    command: str
    doc: object
    args: tuple = ()
    rejected: bool = False  # malformed on purpose: must end with exit 2 or 3
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# brauer-sweep
# ---------------------------------------------------------------------------

# The data are drawn the way acceptance criterion 2 draws them (r in 2..4,
# M in {2,4,6,8,12}, 0-2 random generators) from one fixed stream, and kept
# until every (r, |G|) cell holds its quota.  Cost grows steeply with |G|
# (|G| = 48 costs about 200 times |G| = 1); the quotas follow the criterion-2
# frequencies per 100 draws, with the two heaviest cells capped at 2 and 1 so
# that a pass stays near 7 s.  The seed renames the coordinates of every
# datum (conjugating its permutations) and shuffles the order: each seed gets
# other documents for the same amount of work.
BRAUER_QUOTAS = {
    (2, 1): 13, (2, 2): 12, (2, 4): 6,
    (3, 1): 12, (3, 2): 10, (3, 3): 2, (3, 4): 2, (3, 6): 6, (3, 12): 4,
    (4, 1): 12, (4, 2): 6, (4, 3): 1, (4, 4): 4, (4, 6): 3, (4, 8): 2,
    (4, 12): 1, (4, 24): 2, (4, 48): 1,
}
BRAUER_MAX_DRAWS = 100_000


def _criterion2_draw(rng: random.Random) -> dict:
    r = rng.randrange(2, 5)
    M = rng.choice([2, 4, 6, 8, 12])
    units = [u for u in range(1, M) if math.gcd(u, M) == 1]
    gens = []
    for _ in range(rng.randrange(0, 3)):
        perm = list(range(r))
        rng.shuffle(perm)
        gens.append({"perm": perm, "unit": rng.choice(units)})
    return {"kind": "galois-datum", "r": r, "M": M, "generators": gens}


def brauer_data() -> list[dict]:
    rng = random.Random("brauer-sweep")
    need = dict(BRAUER_QUOTAS)
    data = []
    for _ in range(BRAUER_MAX_DRAWS):
        if not any(need.values()):
            return data
        doc = _criterion2_draw(rng)
        gens = [(g["perm"], g["unit"]) for g in doc["generators"]]
        cell = (doc["r"], len(close_galois(doc["r"], doc["M"], gens)))
        if need.get(cell, 0):
            need[cell] -= 1
            data.append(doc)
    raise RuntimeError("brauer-sweep quotas not filled")


def _rename(doc: dict, rng: random.Random) -> dict:
    """The same datum with coordinate i called sigma(i)."""
    sigma = list(range(doc["r"]))
    rng.shuffle(sigma)
    inverse = sorted(range(doc["r"]), key=sigma.__getitem__)
    gens = [{"perm": [sigma[g["perm"][inverse[i]]] for i in range(doc["r"])], "unit": g["unit"]}
            for g in doc["generators"]]
    return {**doc, "generators": gens}


def brauer_ops(seed: int) -> list[Op]:
    rng = random.Random(f"brauer-sweep:{seed}")
    ops = [Op(f"datum r={doc['r']} M={doc['M']} generators={len(doc['generators'])}",
              "qt-brauer", _rename(doc, rng)) for doc in brauer_data()]
    rng.shuffle(ops)
    short_perm = {"kind": "galois-datum", "r": 3, "M": 4,
                  "generators": [{"perm": [1, 0], "unit": 3}]}
    return [Op("perm shorter than r", "qt-brauer", short_perm, rejected=True)] + ops


def _judge(ops, outputs, check_one) -> list[str | None]:
    """`check_one(op, out)` on every operation with an output.  An output of
    the wrong shape makes the checker raise; that is a wrong answer for this
    operation alone, not the end of the pass."""
    verdicts = []
    for op, out in zip(ops, outputs):
        if op.rejected or out is None:
            verdicts.append(None)
            continue
        try:
            verdicts.append(check_one(op, out))
        except Exception as e:
            verdicts.append(f"malformed output: {type(e).__name__}: {e}")
    return verdicts


def _check_brauer_one(op: Op, out: dict) -> str | None:
    want = brauer_expectation(op.doc)
    got_orbits = {tuple(o["pair"]): (o["orbit_size"], o["order"]) for o in out["orbits"]}
    if got_orbits != want["orbits"]:
        return f"orbits {got_orbits} != enumerated {want['orbits']}"
    if tuple(out["invariant_factors"]) != want["invariant_factors"]:
        return f"invariant factors {out['invariant_factors']} != {want['invariant_factors']}"
    if not (out["agreement"] and all(out["basis_checks"].values())
            and out["representative_independence"]):
        return "program reports a failed self-check"
    return None


def check_brauer(ops, outputs) -> list[str | None]:
    return _judge(ops, outputs, _check_brauer_one)


# ---------------------------------------------------------------------------
# real-torus
# ---------------------------------------------------------------------------

REAL_TORUS_MODULI = (2, 3, 4, 8)
# Involution types that a basis change can disguise; the others are +-1.
LADDER_TYPES = ((1, 1, 0), (0, 0, 1), (2, 1, 0), (1, 2, 0), (1, 0, 1), (0, 1, 1))
LADDER_STEPS = 5
# (0,0,1) under orientation A grows about 6x per step past k = 3.
LADDER_CAP = {((0, 0, 1), "A"): 3}


def involution_types(max_rank: int = 3):
    return sorted(
        (a, b, c)
        for c in range(max_rank // 2 + 1)
        for a in range(max_rank + 1)
        for b in range(max_rank + 1)
        if 1 <= a + b + 2 * c <= max_rank
    )


def canonical_involution(a: int, b: int, c: int) -> list[list[int]]:
    s = identity(0)
    for _ in range(a):
        s = block_diag(s, [[1]])
    for _ in range(b):
        s = block_diag(s, [[-1]])
    for _ in range(c):
        s = block_diag(s, [[0, 1], [1, 0]])
    return s


def _ladder(k: int, orient: str, n: int):
    """P and P^-1 with P = [[1,k],[1,k+1]] (A) or its transpose (B) placed on
    coordinates 0 and n-1 of the identity."""
    p, q = ([[1, k], [1, k + 1]], [[k + 1, -k], [-1, 1]])
    if orient == "B":
        p, q = [list(r) for r in zip(*p)], [list(r) for r in zip(*q)]
    out = []
    for m in (p, q):
        e = identity(n)
        e[0][0], e[0][n - 1], e[n - 1][0], e[n - 1][n - 1] = m[0][0], m[0][1], m[1][0], m[1][1]
        out.append(e)
    return out


def _signed_permutations(n: int):
    """Three fixed signed permutation matrices: reversal, a cyclic shift with
    e_0 negated, and the last coordinate negated."""
    shift = [(i + 1) % n for i in range(n)]
    out = []
    for perm, signs in ((list(range(n))[::-1], [1] * n),
                        (shift, [-1] + [1] * (n - 1)),
                        (list(range(n)), [1] * (n - 1) + [-1])):
        d = [[signs[i] * x for x in row] for i, row in enumerate(permutation_matrix(perm))]
        out.append((d, [list(r) for r in zip(*d)]))  # orthogonal: inverse = transpose
    return out


def real_torus_ops(seed: int) -> list[Op]:
    """Each type in canonical form and under three signed permutations
    (entries stay 0/+-1, which bypasses the homotopy's growth), then the
    ladder.  The seed changes nothing here; see README.md for why."""
    moduli = ",".join(map(str, REAL_TORUS_MODULI))
    ops = []

    def add(label, s, ty, canonical=False):
        doc = {"kind": "involution-lattice", "matrix": s}
        ops.append(Op(label, "real-torus", doc, ("--modulus", moduli),
                      meta={"type": ty, "canonical": canonical}))

    for ty in involution_types():
        s0 = canonical_involution(*ty)
        add(f"type {ty} canonical", s0, ty, canonical=True)
        for v, (d, dinv) in enumerate(_signed_permutations(len(s0))):
            add(f"type {ty} signed permutation {v}", matmul(matmul(d, s0), dinv), ty)
    for ty in LADDER_TYPES:
        s0 = canonical_involution(*ty)
        n = len(s0)
        for orient in "AB":
            for k in range(1, LADDER_CAP.get((ty, orient), LADDER_STEPS) + 1):
                p, pinv = _ladder(k, orient, n)
                add(f"type {ty} ladder {orient} k={k}", matmul(matmul(p, s0), pinv), ty)
    ragged = {"kind": "involution-lattice", "matrix": [[0, 1], [1]]}
    swap = {"kind": "involution-lattice", "matrix": [[0, 1], [1, 0]]}
    return [Op("ragged matrix", "real-torus", ragged, ("--modulus", moduli), rejected=True),
            Op("modulus 0", "real-torus", swap, ("--modulus", "0"), rejected=True)] + ops


def _real_torus_invariants_order(s, n: int) -> int:
    # N is the involution lattice twisted by the sign, so conjugation acts by -S
    # on N and by -1 on mu_n.
    return fixed_count(hom_action([identity(len(s)), scale(s, -1)], [1, -1], n, 2)[1:], n)


def check_real_torus(ops, outputs) -> list[str | None]:
    canonical = {}
    for op, out in zip(ops, outputs):
        if op.meta.get("canonical") and out is not None:
            try:
                canonical[op.meta["type"]] = [lv["invariants"] for lv in out["levels"]]
            except Exception:
                pass  # judged malformed on its own

    def check_one(op: Op, out: dict) -> str | None:
        a, b, c = op.meta["type"]
        levels = out["levels"]
        if out["decomposition"] != {"trivial": a, "sign": b, "induced": c}:
            return f"decomposition {out['decomposition']} is not type {(a, b, c)}"
        if not (out["all_d2_zero"] and all(lv["d2_zero"] for lv in levels)):
            return "d2 is not zero"
        if [lv["n"] for lv in levels] != list(REAL_TORUS_MODULI):
            return "levels differ from the requested moduli"
        for lv in levels:
            want = _real_torus_invariants_order(op.doc["matrix"], lv["n"])
            if group_order(lv["invariants"]) != want:
                return f"n={lv['n']}: invariants {lv['invariants']} but {want} fixed vectors"
        ref = canonical.get((a, b, c))
        if ref is not None and ref != [lv["invariants"] for lv in levels]:
            return f"invariants differ from the canonical form's {ref}"
        return None

    return _judge(ops, outputs, check_one)


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    name: str
    pi: dict
    rho: tuple  # one matrix per element, in the CLI's element order
    sign: tuple | None  # a sign character, when the lattice family has one
    target: str | None  # "cyclic", "shapiro" or None: how H^2 is checked


def _s3_elements():
    ident = (0, 1, 2)
    return [ident] + [p for p in itertools.permutations(range(3)) if p != ident]


def _parity(p) -> int:
    return 1 - 2 * (sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2)


def twisting_lattices() -> list[Lattice]:
    """The criterion-6 lattices: C2, C3, V4 and S3, plain and sign-twisted."""
    i2, i3, sw = identity(2), identity(3), [[0, 1], [1, 0]]
    sw3 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    c3 = permutation_matrix((1, 2, 0))
    s3 = _s3_elements()
    parity = tuple(_parity(p) for p in s3)
    # V4 element order is (0,0), (0,1), (1,0), (1,1); x = (1,0) swaps e_0, e_1
    # and the sign character is -1 on y = (0,1) and xy.
    v4_sign = (1, -1, 1, -1)
    return [
        Lattice("C2 swap", {"cyclic": 2}, (i2, sw), (1, -1), "cyclic"),
        Lattice("C2 swap (x) sign", {"cyclic": 2}, (i2, scale(sw, -1)), (1, -1), "cyclic"),
        Lattice("C2 swap + 1", {"cyclic": 2}, (i3, block_diag(sw, [[1]])), (1, -1), "cyclic"),
        Lattice("C3 permutation", {"cyclic": 3}, (i3, c3, matmul(c3, c3)), None, "cyclic"),
        Lattice("V4 permutation", {"klein": True}, (i3, i3, sw3, sw3), v4_sign, None),
        Lattice("V4 permutation (x) sign", {"klein": True},
                tuple(scale(m, u) for m, u in zip((i3, i3, sw3, sw3), v4_sign)), v4_sign, None),
        Lattice("S3 permutation", {"symmetric": 3},
                tuple(permutation_matrix(p) for p in s3), parity, "shapiro"),
        Lattice("S3 permutation (x) sign", {"symmetric": 3},
                tuple(scale(permutation_matrix(p), u) for p, u in zip(s3, parity)), parity, "shapiro"),
    ]


# Levels per group.  V4 stops at 5 and C2/C3 go on to 7, so that a pass
# stays near 12 s and three passes fit in a 30 s run.
TWISTING_LEVELS = {"C2": range(2, 8), "C3": range(2, 8), "V4": range(2, 6)}
# d2 on an S3 lattice costs 2-5 s, so S3 runs only at criterion 6's levels,
# as (n, with the sign character).  Left out: the plain lattice with mu_3 or
# mu_4 and the sign character (29 s; over 8 minutes), the twisted one with
# mu_3 and the trivial character (over 4 minutes), and, for run length, the
# twisted one with mu_2 (2.4 s) and with mu_4 and the sign character (4 s).
S3_CASES = {"S3 permutation": ((2, False),),
            "S3 permutation (x) sign": ((3, True),)}


def _split_doc(lat: Lattice, n: int, signed: bool) -> dict:
    chi = list(lat.sign) if signed else [1] * len(lat.rho)
    return {"kind": "split-extension", "pi": lat.pi, "action": [list(map(list, m)) for m in lat.rho],
            "coefficients": {"mu": n, "chi": chi}}


def twisting_ops(seed: int) -> list[Op]:
    """Levels ascend per lattice, so the first call on a lattice fills the
    spectral caches and later levels hit them.  The seed changes nothing
    here; see README.md for why."""
    lattices = {lat.name: lat for lat in twisting_lattices()}
    ops = []
    for lat in lattices.values():
        if lat.name in S3_CASES:
            cases = [("d2", n, signed) for n, signed in S3_CASES[lat.name]]
        else:
            cases = [(command, n, signed) for n in TWISTING_LEVELS[lat.name[:2]]
                     for signed in ((False, True) if lat.sign and n > 2 else (False,))
                     for command in ("d2", "v2")]
        for command, n, signed in cases:
            label = f"{command} {lat.name} mu_{n}{' sign' if signed else ''}"
            ops.append(Op(label, command, _split_doc(lat, n, signed),
                          meta={"lattice": lat.name, "n": n}))
    cyclic0 = {"kind": "split-extension", "pi": {"cyclic": 0}, "action": [],
               "coefficients": {"mu": 2, "chi": []}}
    mu0 = _split_doc(lattices["C2 swap"], 2, False)
    mu0["coefficients"]["mu"] = 0
    return [Op("pi cyclic 0", "d2", cyclic0, rejected=True),
            Op("mu 0", "d2", mu0, rejected=True)] + ops


def _check_d2(lat: Lattice, op: Op, out: dict) -> str | None:
    n = op.meta["n"]
    chi = op.doc["coefficients"]["chi"]
    source = fixed_count(hom_action(lat.rho, chi, n, 2), n)
    if group_order(out["source"]) != source:
        return f"source {out['source']} but {source} fixed vectors"
    if lat.target is not None:
        degree1 = hom_action(lat.rho, chi, n, 1)
        if lat.target == "cyclic":
            target = cyclic_h2_order(degree1, n)
        else:
            target = shapiro_h2_order(lat.rho, chi, n)
        if group_order(out["target"]) != target:
            return f"target {out['target']} but H^2 has order {target}"
    if len(out["pushforward_formula"]) != len(group_factors(out["source"])):
        return "one pushforward verdict per source generator expected"
    if lat.pi == {"cyclic": 2} and not out["d2_zero"]:
        return "d2 is not zero on an involution lattice"
    return None


def check_twisting(ops, outputs) -> list[str | None]:
    lattices = {lat.name: lat for lat in twisting_lattices()}
    v2_coords = {}
    for op, out in zip(ops, outputs):
        if op.command == "v2" and out is not None:
            try:
                coords = tuple(out["v2_coords"])
            except Exception:
                continue  # judged malformed on its own
            v2_coords.setdefault(op.meta["lattice"], set()).add(coords)

    def check_one(op: Op, out: dict) -> str | None:
        lat = lattices[op.meta["lattice"]]
        if not all(out["pushforward_formula"]):
            return "a pushforward-formula verdict is false"
        if op.command == "d2":
            return _check_d2(lat, op, out)
        if len(v2_coords[lat.name]) != 1:
            return f"v2 coordinates differ across levels: {sorted(v2_coords[lat.name])}"
        if out["v2_zero"] != (not any(out["v2_coords"])):
            return "v2_zero disagrees with v2_coords"
        if lat.pi == {"cyclic": 2} and not out["v2_zero"]:
            return "v2 is not zero on an involution lattice"
        return None

    return _judge(ops, outputs, check_one)


WORKLOADS = {
    "brauer-sweep": (brauer_ops, check_brauer),
    "real-torus": (real_torus_ops, check_real_torus),
    "twisting": (twisting_ops, check_twisting),
}


def document_text(op: Op) -> str:
    return json.dumps(op.doc, sort_keys=True)
