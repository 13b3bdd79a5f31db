#!/usr/bin/env python3
"""Demo: second-page differentials and the pushforward formula for a split
extension of a finite group by a lattice.

Builds a handful of example extensions, prints the source and target groups
of the differential out of bidegree (0,2), its matrix on generators, and
checks each generator against the pushforward of the universal class.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusbrauer.groups import (
    CoeffModule,
    FiniteGroup,
    GaloisDatum,
    permutation_lattice,
    tate_twist,
)
from torusbrauer.intlat import IntMatrix
from torusbrauer.spectral import (
    SplitExtensionSpec,
    pushforward_formula_check,
    d2_02,
    v2,
)


def examples():
    c2 = FiniteGroup.cyclic(2)
    swap = CoeffModule(c2, 2, None, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])))
    yield "induced C2-lattice, level 2", SplitExtensionSpec(
        swap, CoeffModule.mu(c2, 2, (1, 1))
    )
    yield "induced C2-lattice, level 4 with inversion", SplitExtensionSpec(
        swap, CoeffModule.mu(c2, 4, (1, -1))
    )
    yield "sign-twisted induced C2-lattice, level 4", SplitExtensionSpec(
        tate_twist(swap, (1, -1)), CoeffModule.mu(c2, 4, (1, 1))
    )
    d = GaloisDatum.from_generators(3, 2, [((1, 0, 2), 1), ((0, 2, 1), 1)])
    perm = permutation_lattice(d)
    yield "natural S3 permutation lattice, level 2", SplitExtensionSpec(
        perm, CoeffModule.mu(d.group, 2, (1,) * d.group.order)
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    for label, ext in examples():
        print(f"== {label} ==")
        rep = d2_02(ext)
        print(f"  source (invariant degree-2 lattice classes): {rep.source.describe()}")
        print(f"  target H^2(pi, Hom(N, M)):                   {rep.target.describe()}")
        print(f"  differential matrix: {rep.matrix.entries}")
        print(f"  differential vanishes: {rep.is_zero()}")
        print(f"  universal class vanishes: {v2(ext.N).is_zero()}")
        for i, ok in enumerate(pushforward_formula_check(ext, rep.source.generators, rng=rng)):
            print(f"  pushforward formula on generator {i}: {'ok' if ok else 'FAILS'}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
