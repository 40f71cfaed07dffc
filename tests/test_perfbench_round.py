"""One benchmark round per workload, in tier 1: an API change that makes an
operation raise or give a wrong output fails here, not only when
``perfbench/run.py`` runs."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("identity-batch", "haar-averaging", "crossed-products", "cli-examples")


@pytest.fixture
def perfbench(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        # perfbench's flat module names stay out of the test session
        for name in ("workloads", "checks", "speed"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_round_passes_every_check(perfbench, name, tmp_path):
    workload = perfbench.WORKLOADS[name](1, tmp_path)
    # the CLI examples run in this interpreter; the capped one needs a child
    workload.in_process = True
    workload.setup()
    workload.reference()
    results = [perfbench.run_op(op) for op in workload.operations() if not op.capped]
    assert results
    assert [r.label for r in results if r.failed] == []
    assert [(r.label, r.problem) for r in results if r.problem] == []
