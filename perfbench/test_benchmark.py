"""Tests of the benchmark's own checkers and a smoke run of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def galois(r, M, gens):
    return {"kind": "galois-datum", "r": r, "M": M,
            "generators": [{"perm": p, "unit": u} for p, u in gens]}


# ---------------------------------------------------------------------------
# checkers against values known by hand
# ---------------------------------------------------------------------------


def test_qi_datum_is_z4():
    want = oracles.brauer_expectation(galois(2, 4, [([1, 0], 3)]))
    assert want["invariant_factors"] == (4,)
    assert want["orbits"] == {(1, 2): (1, 4)}


def test_s3_datum_is_z2():
    want = oracles.brauer_expectation(galois(3, 2, [([1, 0, 2], 1), ([0, 2, 1], 1)]))
    assert want["group_order"] == 6
    assert want["invariant_factors"] == (2,)
    assert want["orbits"] == {(1, 2): (3, 2)}


def test_split_datum_is_z2_cubed():
    want = oracles.brauer_expectation(galois(3, 2, []))
    assert want["invariant_factors"] == (2, 2, 2)


def test_h2_of_c2_with_z2_is_z2():
    assert oracles.cyclic_h2_order([[[1]], [[1]]], 2) == 2
    # Z/4 with the generator acting by -1: fixed {0, 2}, norms {0}
    assert oracles.cyclic_h2_order([[[1]], [[3]]], 4) == 2
    # C3 acting trivially on Z/2: fixed Z/2, norm is multiplication by 3
    assert oracles.cyclic_h2_order([[[1]]] * 3, 2) == 1


def test_shapiro_matches_periodicity_on_the_s3_permutation_lattice():
    s3 = next(lat for lat in workloads.twisting_lattices() if lat.name == "S3 permutation")
    for n in (2, 3, 4, 6):
        assert oracles.shapiro_h2_order(s3.rho, [1] * 6, n) == (2 if n % 2 == 0 else 1)


@pytest.mark.parametrize("orders, factors", [
    ((4,), (4,)), ((2, 3), (6,)), ((2, 2, 4), (2, 2, 4)), ((4, 6), (2, 12)), ((1, 1), ()),
])
def test_invariant_factors(orders, factors):
    assert oracles.invariant_factors(orders) == factors


def test_group_order_parses_the_cli_notation():
    assert oracles.group_order("0") == 1
    assert oracles.group_order("Z/2 + Z/6") == 12
    assert oracles.group_order("Z + Z/2") is None


def test_real_torus_invariants_of_the_swap():
    # Hom(Lambda^2 N, mu_n) is Z/n, on which conjugation acts by -det(S) = 1
    assert workloads._real_torus_invariants_order([[0, 1], [1, 0]], 4) == 4
    assert workloads._real_torus_invariants_order([[1, 0], [0, 1]], 4) == 2


def test_every_workload_has_100_operations_and_is_seeded():
    for name, (build, _) in workloads.WORKLOADS.items():
        ops = build(7)
        assert len(ops) >= 100, name
        assert [workloads.document_text(op) for op in ops] == [
            workloads.document_text(op) for op in build(7)]
        assert sum(op.rejected for op in ops) in (1, 2), name


def test_a_wrong_answer_is_caught(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from torusbrauer import cli

    op = workloads.Op("qi", "qt-brauer", galois(2, 4, [([1, 0], 3)]))
    path = tmp_path / "qi.json"
    path.write_text(workloads.document_text(op))
    code, text = cli.run(["--json", "qt-brauer", str(path)])
    out = json.loads(text)
    assert code == 0 and workloads.check_brauer([op], [out]) == [None]
    out["orbits"][0]["order"] = 2
    assert workloads.check_brauer([op], [out])[0] is not None
    # the program's own cross-check failing (exit 4) is a wrong answer
    assert worker._outcome(op, 4, "disagreement: basis\n", None) == (False, True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_malformed_output_is_one_wrong_answer(workload):
    ops = [op for op in workloads.WORKLOADS[workload][0](0) if not op.rejected][:2]
    verdicts = workloads.WORKLOADS[workload][1](ops, [{}, "not json"])
    assert all(v.startswith("malformed output") for v in verdicts)


def test_percentiles_are_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.nearest_rank(values, 0.5) == 50.0
    assert run.nearest_rank(values, 0.9) == 90.0
    assert run.nearest_rank([3.0], 0.9) == 3.0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]


# ---------------------------------------------------------------------------
# smoke runs on a short slice
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke(workload, tmp_path):
    report = worker.run_pass(workload, seed=0, trace=False, out_dir=tmp_path, limit=6)
    assert report["attempted"] == 6
    assert report["wrong"] == []
    rejected = sum(op.rejected for op in workloads.WORKLOADS[workload][0](0)[:6])
    assert report["failed"] <= rejected
    assert len(report["items_ms"]) == 6
    assert set(report["metrics"]) | {"item_p50_ms", "item_p90_ms"} == set(run.END_TO_END)


def test_traced_smoke(tmp_path):
    report = worker.run_pass("real-torus", seed=0, trace=True, out_dir=tmp_path, limit=4)
    layers = report["layers"]
    assert layers["spectral.real_torus_check.calls"] > 0
    assert layers.get("cohomology.cohomology.calls", 0) == 0
    assert (tmp_path / "trace-real-torus-seed0.jsonl").stat().st_size > 0
