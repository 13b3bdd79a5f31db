#!/usr/bin/env python3
"""Sweep involution lattices: decomposition types, universal-class vanishing
and the level-n transgression check.

Every involution of rank up to --max-rank is built in canonical block form,
conjugated by random unimodular matrices, split back into its
trivial/sign/induced type, and fed through the second-page differential at
each requested level.  The universal degree-2 class is checked to vanish as
well.
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "src")

from torusbrauer.groups import canonical_involution, involution_lattice, unimodular_inverse
from torusbrauer.intlat import IntMatrix
from torusbrauer.spectral import real_torus_check, v2


def involution_types(max_rank):
    out = []
    for c in range(max_rank // 2 + 1):
        for a in range(max_rank - 2 * c + 1):
            for b in range(max_rank - 2 * c - a + 1):
                if 1 <= a + b + 2 * c <= max_rank:
                    out.append((a, b, c))
    return sorted(out)


def random_unimodular(n, rng, steps=10):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=3)
    ap.add_argument("--conjugates", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--levels", default="2,3,4,8")
    args = ap.parse_args()
    levels = tuple(int(x) for x in args.levels.split(","))

    rng = random.Random(args.seed)
    failures = 0
    t0 = time.monotonic()
    for a, b, c in involution_types(args.max_rank):
        s0 = canonical_involution(a, b, c)
        mats = [("canonical", s0)]
        for i in range(args.conjugates):
            p = random_unimodular(s0.rows, rng)
            mats.append((f"conjugate {i}", p.mul(s0).mul(unimodular_inverse(p))))
        for name, s in mats:
            v2_zero = v2(involution_lattice(s)).is_zero()
            rep = real_torus_check(s, levels)
            verdicts = []
            for lv in rep.levels:
                ok = lv.d2_is_zero and rep.decomposition == (a, b, c)
                failures += not ok
                verdicts.append(f"n={lv.n}:{'0' if lv.d2_is_zero else 'NONZERO'}")
            failures += not v2_zero
            print(
                f"type (a,b,c)=({a},{b},{c}) {name:12s} "
                f"v2={'0' if v2_zero else 'NONZERO'}  " + "  ".join(verdicts)
            )
    print(f"\ndone in {time.monotonic() - t0:.1f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
