"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over the workload runs in a
fresh single-threaded process (`worker.py`), so the program's module caches
start empty and `ru_maxrss` belongs to that pass alone.  Passes repeat until
`--seconds` have gone by; every metric is the median over the passes, and
the item percentiles are nearest-rank over each operation's median time.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from traced passes.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    # brauer-sweep
    "groups.pair_module.calls",
    "groups.pair_module.s",
    "groups.CoeffModule.init.s",
    "groups.FiniteGroup.init.s",
    "brauer.pair_orbits.calls",
    "brauer.brute_invariants.calls",
    "brauer.symbol_basis.s",
    "brauer.verify_basis.s",
    "brauer.representative_independence.s",
    # real-torus
    "spectral.TwistedResolution.homotopy.calls",
    "spectral.TwistedResolution.homotopy.terms",
    "spectral.TwistedResolution.homotopy.s",
    "spectral.TwistedResolution.d_basis.s",
    "spectral.real_torus_check.calls",
    "spectral.real_torus_check.s",
    "groups.c2_decompose.s",
    # twisting
    "spectral.CochainComplex.delta_matrix.cells",
    "spectral.CochainComplex.delta_matrix.s",
    "spectral.e21_data.s",
    "spectral.row_coboundary_matrix.s",
    "spectral.d2_02.s",
    "spectral.v2.s",
    "spectral.pushforward_formula_check.s",
    "intlat.Subquotient.init.calls",
    "intlat.Subquotient.init.s",
    "intlat.smith.calls",
    "intlat.smith.cells",
    "intlat.smith.s",
    "intlat.smith.max_bits",
    "spectral.e21_data.hit_ratio",
    "spectral.twisted_resolution.hit_ratio",
    # reached by no command today
    "cohomology.cohomology.calls",
    "cohomology.cohomology.s",
    "cohomology.bar_delta_matrix.cells",
    # command layer, set-up and the tracer itself
    "cli.run.self_s",
    "setup.import_s",
    "trace.wall_s",
    "trace.spans",
)


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("s", "self_s", "import_s", "wall_s"):
        return "s"
    return {"max_bits": "bits", "hit_ratio": "ratio"}.get(suffix, "count")


def nearest_rank(values: list[float], q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_passes(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    passes: list[dict] = []
    last = 0.0
    while not passes or (
        time.monotonic() - start < seconds
        and time.monotonic() - start + 1.5 * last < RUN_LIMIT_S
    ):
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace),
               "--spawned-at", repr(spawned)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, RUN_LIMIT_S - (spawned - start)))
        if proc.returncode != 0:
            raise RuntimeError(f"pass failed with exit {proc.returncode}:\n{proc.stderr}")
        passes.append(json.loads(proc.stdout.splitlines()[-1]))
        last = time.monotonic() - spawned
    return passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="torusbrauer benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "torusbrauer" / "cli.py").is_file():
        print(f"error: no torusbrauer sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        units = {name: layer_unit(name) for name in PER_LAYER}
        key = "layers"
    else:
        units, key = END_TO_END, "metrics"
    medians = {name: statistics.median(ps[key].get(name, 0.0) for ps in passes) for name in units}
    if not args.trace:
        # percentiles over each operation's median time across the passes
        per_op = [statistics.median(times) for times in zip(*(ps["items_ms"] for ps in passes))]
        medians["item_p50_ms"] = nearest_rank(per_op, 0.5)
        medians["item_p90_ms"] = nearest_rank(per_op, 0.9)
    metrics = {name: {"value": medians[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not any(ps["wrong"] for ps in passes),
        "attempted": sum(ps["attempted"] for ps in passes),
        "failed": sum(ps["failed"] for ps in passes),
        "metrics": metrics,
    }
    for failure in sorted({f for ps in passes for f in ps["failures"]}):
        print(f"failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    line = json.dumps(result, allow_nan=False)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
