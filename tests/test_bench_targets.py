"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here, not only in the benchmark's own self-test."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import metrics  # noqa: E402
import tracer  # noqa: E402  (reads TARGETS only; install() would rebind names)

from schuralg.verification import run_suite  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, _, _ in tracer.TARGETS]
)
def test_traced_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize(
    "module_name, attr",
    [
        ("schuralg.multiplication", "_basis_product"),
        ("schuralg.centre", "_pair_count"),
        ("schuralg.basis", "enumerate_basis"),
    ],
)
def test_traced_cache_exposes_info(module_name, attr):
    assert hasattr(getattr(importlib.import_module(module_name), attr), "cache_info")


def test_suite_check_names_are_the_benchmark_names():
    # the verify workload refuses a suite whose check names differ from
    # CHECK_NAMES, so a renamed or reordered check must fail here too
    assert tuple(r.name for r in run_suite(2, 2)) == metrics.CHECK_NAMES
