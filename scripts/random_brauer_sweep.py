#!/usr/bin/env python3
"""Random sweep: declared symbol bases versus the invariants oracle.

For each randomly drawn Galois datum the declared basis of corestricted
symbols is checked for structure match, generation, exact orders and
representative independence against the brute-force fixed-module
computation.
"""

import argparse
import math
import random
import sys
import time

sys.path.insert(0, "src")

from torusbrauer.brauer import BrauerAnalysis
from torusbrauer.groups import GaloisDatum


MAX_GENERATORS = 2


def random_datum(rng, max_rank: int, moduli) -> GaloisDatum:
    r = rng.randrange(2, max_rank + 1)
    M = rng.choice(moduli)
    units = [u for u in range(1, M) if math.gcd(u, M) == 1]
    pairs = []
    for _ in range(rng.randrange(0, MAX_GENERATORS + 1)):
        p = list(range(r))
        rng.shuffle(p)
        pairs.append((tuple(p), rng.choice(units)))
    return GaloisDatum.from_generators(r, M, pairs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-rank", type=int, default=4)
    ap.add_argument("--moduli", default="2,4,6,8,12")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args()
    moduli = tuple(int(x) for x in args.moduli.split(","))

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    failures = 0
    seen_groups: dict = {}
    for i in range(args.count):
        d = random_datum(rng, args.max_rank, moduli)
        analysis = BrauerAnalysis(d)
        failed = analysis.failures()
        failures += bool(failed)
        group = analysis.group.describe()
        seen_groups[group] = seen_groups.get(group, 0) + 1
        if not args.quiet or failed:
            print(
                f"[{i:4d}] r={d.r} M={d.M:2d} |G|={d.group.order:3d} "
                f"group={group:12s} "
                f"{'MISMATCH: ' + str(failed) if failed else 'ok'}"
            )
    dt = time.monotonic() - t0
    print(f"\n{args.count} data in {dt:.1f}s, {failures} failure(s)")
    for name, cnt in sorted(seen_groups.items()):
        print(f"  {name:14s} x{cnt}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
