import numpy as np
import pytest

from wignerlab import (
    BundleSpec,
    FieldState,
    UnknownBasePoint,
    assign_invariant_field,
    bundle_spec_from_json,
    cyclic_group,
    haar_sample,
    invariance_residual,
    is_separating,
    maximally_mixed,
    pullback,
    restrict,
    su2_fundamental,
    su2_irrep,
    su3_fundamental,
    trace_distance,
    trivial_rep,
    u1_rep,
)


def test_single_point_su2_gives_maximally_mixed():
    spec = BundleSpec(("x",), {"x": su2_fundamental()})
    field = assign_invariant_field(spec, seed=3)
    assert trace_distance(restrict(field, "x"), maximally_mixed(2)) <= 1e-8


def test_trivial_action_keeps_seeds_and_is_deterministic():
    group = cyclic_group(2)
    spec = BundleSpec(
        ("a", "b", "c"),
        {"a": trivial_rep(group, 2), "b": trivial_rep(group, 3), "c": trivial_rep(group, 2)},
    )
    f1 = assign_invariant_field(spec, seed=11)
    f2 = assign_invariant_field(spec, seed=11)
    for label in spec.points:
        assert np.array_equal(f1.states[label].rho, f2.states[label].rho)
        assert invariance_residual(spec.reps[label], f1.states[label]) == 0.0
    f3 = assign_invariant_field(spec, seed=12)
    assert not np.array_equal(f1.states["a"].rho, f3.states["a"].rho)
    # averaging a trivial action is the identity: components equal their seeds
    from wignerlab.bundle import _blend_seed_state
    from wignerlab.groups import philox_stream

    for idx, label in enumerate(spec.points):
        expected = _blend_seed_state(spec.dim(label), 0.5, philox_stream(11, idx))
        assert trace_distance(f1.states[label], expected) <= 1e-12


def test_u1_fibres_dephase_and_stay_full_rank():
    rep = u1_rep([1, -1])
    spec = BundleSpec(("p", "q"), {"p": rep, "q": rep})
    field = assign_invariant_field(spec, seed=7)
    for label in spec.points:
        rho = field.states[label].rho
        off = rho - np.diag(np.diag(rho))
        assert np.abs(off).max() <= 1e-12
        assert is_separating(field.states[label]).separating


def test_mixed_dimensions_one_group():
    spec = BundleSpec(("x0", "x1"), {"x0": su2_fundamental(), "x1": su2_irrep(3)})
    field = assign_invariant_field(spec, seed=5)
    for label in spec.points:
        rep = spec.reps[label]
        state = restrict(field, label)
        assert invariance_residual(rep, state, probes=50, seed=1) <= 1e-7
        assert is_separating(state).separating


def test_su3_fibre_via_cesaro():
    spec = BundleSpec(("y",), {"y": su3_fundamental()})
    field = assign_invariant_field(spec, seed=2)
    state = restrict(field, "y")
    for g in haar_sample(su3_fundamental(), 404, 25):
        assert trace_distance(pullback(su3_fundamental(), g, state), state) <= 1e-7
    assert is_separating(state).separating


def test_broken_averager_raises_instead_of_falling_back(monkeypatch):
    from wignerlab import FieldAssignmentError, HaarAverageResult, bundle

    spec = BundleSpec(("a", "b", "c"), {p: su2_irrep(d) for p, d in zip("abc", (2, 3, 2))})
    calls = []
    average_one = bundle._average_one

    def counted(*args):
        calls.append(args)
        return average_one(*args)

    monkeypatch.setattr(bundle, "_average_one", counted)
    assign_invariant_field(spec, seed=6)
    assert len(calls) == len(spec.points)

    # an averager that returns its input leaves a non-invariant seed state;
    # that must surface, not be replaced by I/d
    monkeypatch.setattr(
        bundle, "haar_average", lambda rep, rho, **kw: HaarAverageResult(rho, "none", rep)
    )
    with pytest.raises(FieldAssignmentError) as err:
        assign_invariant_field(spec, seed=6)
    assert err.value.label == "a"


def test_restrict_unknown_point():
    spec = BundleSpec(("x",), {"x": su2_fundamental()})
    field = assign_invariant_field(spec, seed=0)
    with pytest.raises(UnknownBasePoint):
        restrict(field, "nowhere")


def test_bundle_spec_rejects_mixed_groups():
    with pytest.raises(ValueError):
        BundleSpec(("a", "b"), {"a": su2_fundamental(), "b": u1_rep([1, -1])})
    with pytest.raises(ValueError):
        BundleSpec(("a", "a"), {"a": su2_fundamental()})


def test_bundle_spec_json_and_field_roundtrip():
    doc = {
        "points": [
            {"label": "x0", "rep": {"kind": "su2", "dim": 2}},
            {"label": "x1", "rep": {"kind": "su2", "dim": 3}},
        ]
    }
    spec = bundle_spec_from_json(doc)
    assert spec.points == ("x0", "x1")
    assert spec.dim("x1") == 3

    field = assign_invariant_field(spec, seed=4)
    reloaded = FieldState.from_json(field.to_json())
    for label in spec.points:
        assert np.array_equal(reloaded.states[label].rho, field.states[label].rho)


def test_field_read_back_from_json_equals_the_assigned_field():
    # U(1) averaging keeps the seed's populations, so other seeds differ
    spec = BundleSpec(("x", "y"), {"x": u1_rep([1, -1]), "y": u1_rep([0, 2, 1])})
    field = assign_invariant_field(spec, seed=9)
    reloaded = FieldState.from_json(field.to_json())
    assert reloaded == field
    assert reloaded.residuals == {} and list(field.residuals) == ["x", "y"]
    other = assign_invariant_field(spec, seed=10)
    assert other != field


def test_bundle_spec_json_rejects_malformed():
    with pytest.raises(ValueError):
        bundle_spec_from_json({"points": [{"label": "x"}]})
    with pytest.raises(ValueError):
        bundle_spec_from_json({"points": [{"label": "x", "rep": {"kind": "nope"}}]})
