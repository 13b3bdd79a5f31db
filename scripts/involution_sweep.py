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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.matrices import involution_types, random_unimodular
from torusbrauer.groups import canonical_involution, involution_lattice, unimodular_inverse
from torusbrauer.spectral import real_torus_check, v2


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
