#!/usr/bin/env python3
"""Random sweep: declared symbol bases versus the invariants oracle.

For each randomly drawn Galois datum the declared basis of corestricted
symbols is checked for structure match, generation, exact orders and
representative independence against the brute-force fixed-module
computation.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusbrauer.brauer import BrauerAnalysis
from torusbrauer.groups import random_galois_datum


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
        d = random_galois_datum(rng, args.max_rank, moduli)
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
