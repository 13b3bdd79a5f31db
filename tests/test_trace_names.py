"""Every per-layer metric of the benchmark names something torusbrauer still
defines.  The tracer wraps functions and methods by name, so a metric whose
name no longer resolves reads 0 without any error."""

import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = ("intlat", "groups", "cohomology", "spectral", "brauer")

# Traced names that no longer resolve: their metrics read 0 until the
# benchmark is brought up to date (ROADMAP item 0).  Each is checked to be
# still dead, so this list shrinks as soon as one is revived or dropped.
DEAD = (
    "brauer.brute_invariants",
    "brauer.symbol_basis",
    "brauer.verify_basis",
    "brauer.representative_independence",
    "spectral.e21_data",
    "spectral.row_coboundary_matrix",
)


def _per_layer():
    """perfbench/run.py's PER_LAYER, read by importing the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.PER_LAYER


def _traced_names():
    """The layer names of PER_LAYER, each metric's suffix (s, calls, ...)
    dropped, in order and without repeats."""
    names = []
    for metric in _per_layer():
        name = metric.rsplit(".", 1)[0]
        if name.split(".")[0] in LAYERS and name not in names:
            names.append(name)
    return names


def _resolves(name) -> bool:
    layer, *path = name.split(".")
    obj = importlib.import_module(f"torusbrauer.{layer}")
    for attr in path:
        obj = getattr(obj, "__init__" if attr == "init" else attr, None)
        if obj is None:
            return False
    return True


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    if name in DEAD:
        assert not _resolves(name), f"{name} resolves again: take it off DEAD"
    else:
        assert _resolves(name), f"{name} is traced but torusbrauer no longer defines it"


def test_dead_names_are_traced():
    assert set(DEAD) <= set(_traced_names())

