"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T

Imports torusbrauer from `src/`, writes the workload's documents, runs every
operation once through `torusbrauer.cli.run` (timed), then checks the
outputs (untimed) and prints one JSON line.  Documents and trace files go
to `perfbench/out/`.  `--spawned-at` is the parent's
`time.monotonic()` just before it started this process, so `setup_s` runs
from process start to the first timed operation.
"""

from __future__ import annotations

import time

_PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


EXIT_DISAGREEMENT = 4  # the program's own cross-check rejected its answer


def _outcome(op, code, text, checked) -> tuple[bool, bool]:
    """(ok, wrong) for one operation.  A rejected document must end with exit
    2 or 3 and a one-line message; accepting it is a wrong answer.  A valid
    document that ends in a disagreement is a wrong answer too."""
    if op.rejected:
        ok = code in (2, 3) and text.count("\n") == 1 and bool(text.strip())
        return ok, code == 0
    if code != 0:
        return False, code == EXIT_DISAGREEMENT
    return checked is None, checked is not None


def _parse(code, text):
    """The JSON output of a successful call; text that is not JSON is passed
    on as it is, and the checker judges it malformed."""
    if code != 0:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return text


def run_pass(workload: str, seed: int, trace: bool, out_dir: Path,
             spawned_at: float | None = None, limit: int | None = None) -> dict:
    """Set up, time one pass over the workload's operations, check them.

    `limit` keeps only the first `limit` operations (smoke tests)."""
    build, check = workloads.WORKLOADS[workload]
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import torusbrauer.cli as cli

    import_s = time.perf_counter() - t_import
    ops = build(seed)[:limit]
    docs = out_dir / f"docs-{workload}-{seed}-{os.getpid()}"
    docs.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        path = docs / f"{i:03d}.json"
        path.write_text(workloads.document_text(op))
        argvs.append(["--json", op.command, str(path), *op.args])

    tracer = None
    if trace:
        import torusbrauer
        import torusbrauer.cohomology  # noqa: F401  (traced even though no command reaches it)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(torusbrauer)

    results = []
    first_op = time.monotonic()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        try:
            code, text = cli.run(argv)
        except Exception as e:  # a traceback today; counted as a failed operation
            code, text = None, f"{type(e).__name__}: {e}"
        results.append((code, text, time.perf_counter() - t0))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(docs)

    outputs = [_parse(code, text) for code, text, _ in results]
    verdicts = check(ops, outputs)
    items, failures, wrong = [], [], []
    for op, (code, text, took), verdict in zip(ops, results, verdicts):
        ok, is_wrong = _outcome(op, code, text, verdict)
        items.append(took * 1000)
        if not ok:
            failures.append(f"{op.label}: exit {code}: {verdict or text.strip()[:200]}")
        if is_wrong:
            wrong.append(failures[-1])
    report = {
        "attempted": len(ops),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "items_ms": items,
        "metrics": {
            "setup_s": first_op - (_PROCESS_START if spawned_at is None else spawned_at),
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        layers = tracer.summary()
        layers["setup.import_s"] = import_s
        layers["trace.wall_s"] = wall
        layers["trace.spans"] = len(tracer.spans)
        report["layers"] = layers
        tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl")
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, default=None)
    args = p.parse_args(argv)
    report = run_pass(args.workload, args.seed, bool(args.trace), HERE / "out", args.spawned_at)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
