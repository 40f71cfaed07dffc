"""The benchmark's tracer rebinds wignerlab functions by name
(``perfbench/layers.py``), and its workloads call ``rep.matrix_fn(g)``; a
rename or a changed result in the package must fail here, not only when the
benchmark runs."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves_in_wignerlab(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        targets = importlib.import_module("layers").targets()
    finally:
        # perfbench's flat module names stay out of the test session
        for name in ("layers", "tracing"):
            sys.modules.pop(name, None)
    assert targets
    missing = [f"{t.module}.{t.attr}" for t in targets
               if not callable(getattr(importlib.import_module(t.module), t.attr, None))]
    assert not missing


def test_traced_arguments_keep_their_positions():
    # perfbench's on_call hooks read these by position: haar_quadrature_su2's
    # args[0] is wrapped as the per-element f, haar_sample's args[2] is count
    from wignerlab import groups

    assert list(inspect.signature(groups.haar_quadrature_su2).parameters) == ["f", "order"]
    assert list(inspect.signature(groups.haar_sample).parameters)[2] == "count"


def test_matrix_fn_is_element_unitary_for_every_group_kind():
    # perfbench/workloads.py builds its reference matrices with matrix_fn
    from wignerlab import groups

    for rep in (groups.quaternion_rep(5), groups.u1_rep([0, 1, -2]), groups.su2_irrep(4),
                groups.su3_rep(6)):
        for g in groups.haar_sample(rep, 3, 5) + [groups.identity_element(rep.group)]:
            expected = groups.element_unitary(rep, g).tobytes()
            assert np.asarray(rep.matrix_fn(g), dtype=complex).tobytes() == expected
