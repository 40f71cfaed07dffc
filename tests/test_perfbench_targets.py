"""The benchmark's tracer rebinds wignerlab functions by name
(``perfbench/layers.py``), and its workloads call ``rep.matrix_fn(g)``; a
rename or a changed result in the package must fail here, not only when the
benchmark runs."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

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
        for g in [*groups.haar_sample(rep, 3, 5), *groups.identity(rep.group)]:
            expected = groups.element_unitary(rep, g).tobytes()
            assert np.asarray(rep.matrix_fn(g), dtype=complex).tobytes() == expected


def test_results_the_workloads_read():
    # perfbench/workloads.py judges averages by .residual and fields by .points
    from wignerlab import bundle, groups, states

    rep = groups.su2_irrep(3)
    rho = states.random_density(3, groups.philox_stream(5, 0))
    assert isinstance(states.haar_average(rep, rho, method="quadrature").residual, float)
    spec = bundle.BundleSpec(("x",), {"x": rep})
    assert bundle.assign_invariant_field(spec, seed=5).points == ("x",)


def test_haar_samples_iterate_to_the_elements_the_judges_read():
    # perfbench's haar_sample judge reads .phi, .theta, .psi or .matrix of each sample
    from wignerlab import groups

    su2 = list(groups.haar_sample(groups.su2_fundamental(), 1, 300))
    su3 = list(groups.haar_sample(groups.su3_fundamental(), 1, 300))
    assert {type(g) for g in su2} == {groups.SU2Element}
    assert {type(g) for g in su3} == {groups.SU3Element}
    assert np.array([(g.phi, g.theta, g.psi) for g in su2]).shape == (300, 3)
    assert np.stack([g.matrix for g in su3]).shape == (300, 3, 3)


def test_problem_elements_iterate_to_what_matrix_fn_accepts():
    # the identity-batch reference calls rep.matrix_fn(g) for g in problem.elements
    from wignerlab import wigner

    for problem in wigner.standard_problem_batch(count=8, base_seed=1):
        mats = [np.asarray(problem.rep.matrix_fn(g), dtype=complex) for g in problem.elements]
        assert np.stack(mats).tobytes() == problem.unitaries.tobytes()


def test_single_element_constructors_validate_as_before():
    # perfbench builds probes with FiniteElement(i), SU2Element(*angles),
    # U1Element(t) and SU3Element(M)
    from wignerlab import groups

    good = ((groups.cyclic_group(4), groups.FiniteElement(3)),
            (groups.SU2, groups.SU2Element(0.1, 0.2, 0.3)), (groups.U1, groups.U1Element(1.0)))
    assert [groups.element_batch(group, [g]).describe()[0] for group, g in good] == [
        {"kind": "finite", "index": 3},
        {"kind": "su2", "phi": 0.1, "theta": 0.2, "psi": 0.3},
        {"kind": "u1", "theta": 1.0}]
    assert not groups.SU3Element(np.eye(3)).matrix.flags.writeable
    for build, message in (
        (lambda: groups.FiniteElement(-1), "negative element index -1"),
        (lambda: groups.SU2Element(0.1, 4.0, 0.3),
         "Euler angles out of range: phi=0.1 theta=4.0 psi=0.3"),
        (lambda: groups.U1Element(7.0), "U(1) angle must lie in [0, 2pi), got 7.0"),
        (lambda: groups.SU3Element(np.eye(3) * 1.001), "SU(3) element is not unitary to 1e-10"),
    ):
        with pytest.raises(groups.BadElement) as info:
            build()
        assert str(info.value) == message
