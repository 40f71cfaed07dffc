"""End-to-end acceptance checks, one test per criterion, tolerances pinned.

Each test prints a single PASS line on success; run with `pytest -s
tests/test_acceptance.py` to see them.
"""

import math

import numpy as np
import pytest

from wignerlab import (
    CrossedProductModel,
    cesaro_fixed_point,
    covariance_check,
    crossed_dimension,
    cyclic_group,
    cyclic_rep,
    element_unitaries,
    element_unitary,
    haar_quadrature_su2,
    haar_sample,
    maximally_mixed,
    partition_entropy,
    pullback,
    quaternion_rep,
    random_density,
    su2_fundamental,
    su3_fundamental,
    standard_problem_batch,
    tensor_iso_check,
    trace_distance,
    trivial_rep,
    u1_rep,
    vn_entropy,
)
from wignerlab import BundleSpec, PartitionWeights, assign_invariant_field, is_separating, restrict
from wignerlab.crossed import spanning_generators, algebra_closure
from wignerlab.groups import SU2Element, philox_stream
from wignerlab.states import DensityState
from wignerlab.wigner import problem_seed_state

from conftest import double_commutant


@pytest.fixture(scope="module")
def batch():
    return standard_problem_batch(count=200, base_seed=2026)


def test_criterion_1_wigner_identity(batch):
    from wignerlab import verify_wigner_identity

    dims_seen = set()
    for problem in batch:
        report = verify_wigner_identity(problem)
        assert report.intersection_dim == report.averaged_dim, report.to_json()
        assert report.max_principal_angle <= 1e-8, report.to_json()
        assert report.inclusion_residual <= 1e-10, report.to_json()
        assert report.verdict
        dims_seen.add(problem.d)
    assert dims_seen == {2, 3, 4, 5, 6}
    print("\ncriterion 1 (Wigner intersection identity, 200 problems): PASS")


def test_criterion_2_invariant_state_from_cesaro(batch):
    for i, problem in enumerate(batch):
        rho0 = problem_seed_state(problem, seed=31337 + i)
        out = cesaro_fixed_point(problem, rho0, tol=1e-10, max_iter=10**5)
        for g in problem.elements:
            assert trace_distance(pullback(problem.rep, g, out), out) <= 1e-9
    print("criterion 2 (Cesaro fixed points, per-element invariance): PASS")


def test_criterion_3_haar_machinery():
    rep2 = su2_fundamental()
    rng = philox_stream(777)
    for _ in range(20):
        rho = random_density(2, rng)

        def f(el, _rho=rho.rho):
            U = element_unitary(rep2, el)
            return U @ _rho @ U.conj().T

        avg = haar_quadrature_su2(f, order=24)
        assert np.abs(avg - np.eye(2) / 2).max() <= 1e-8

    for rep, n in ((rep2, 2), (su3_fundamental(), 3)):
        vals = np.abs(element_unitaries(rep, haar_sample(rep, 4242, 10**5))[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / n) <= 4 * se
    print("criterion 3 (SU(2) quadrature + Monte Carlo first moments): PASS")


def test_criterion_4_continuity():
    rep = su2_fundamental()
    rng = philox_stream(99)
    pairs = haar_sample(rep, 2121, 200)
    for i in range(100):
        g, h = pairs[2 * i], pairs[2 * i + 1]
        rho = random_density(2, rng)
        lhs = trace_distance(pullback(rep, g, rho), pullback(rep, h, rho))
        gap = np.linalg.norm(element_unitary(rep, g) - element_unitary(rep, h), 2)
        assert lhs <= 2 * gap + 1e-9

    g = SU2Element(0.4, 0.9, -1.3)
    rho = random_density(2, rng)
    base = pullback(rep, g, rho)
    values = []
    for t in (1.0, 1e-2, 1e-4, 1e-7):
        h = SU2Element(0.4 + t, 0.9 + t, -1.3 + t)
        values.append(trace_distance(base, pullback(rep, h, rho)))
    assert values[-1] < 1e-6
    assert all(a > b for a, b in zip(values, values[1:]))
    print("criterion 4 (weak continuity of the dual action): PASS")


def test_criterion_5_crossed_products():
    models = {
        "trivial-z2-m2": CrossedProductModel(trivial_rep(cyclic_group(2), 2)),
        "inner-z2-m2": CrossedProductModel(cyclic_rep(2, dim=2)),
        "q8-m2": CrossedProductModel(quaternion_rep()),
    }
    for name, model in models.items():
        assert covariance_check(model) <= 1e-12, name
        gens = spanning_generators(model)
        span = algebra_closure(gens, model.ambient_dim)
        dc = double_commutant(gens, model.ambient_dim)
        assert span.dim == dc.dim, name
    assert crossed_dimension(models["trivial-z2-m2"]) == 8
    assert crossed_dimension(models["inner-z2-m2"]) == 8

    point = CrossedProductModel(trivial_rep(cyclic_group(2), 1))
    plane = models["trivial-z2-m2"]
    r1 = tensor_iso_check([point, point])
    assert r1.equal and r1.product_model_dim == 4
    r2 = tensor_iso_check([plane, point])
    assert r2.equal and r2.product_model_dim == 16
    r3 = tensor_iso_check([point, point, point])
    assert r3.equal and r3.product_model_dim == 8
    print("criterion 5 (crossed products: covariance, dimensions, tensor checks): PASS")


def test_criterion_6_entropy():
    for n in range(1, 65):
        assert abs(partition_entropy(PartitionWeights.uniform(n)) - math.log(n)) <= 1e-12
    for d in range(1, 17):
        assert abs(vn_entropy(maximally_mixed(d)) - math.log(d)) <= 1e-12
    rep = su2_fundamental()
    rng = philox_stream(606)
    elements = haar_sample(rep, 6006, 100)
    for i in range(100):
        rho = random_density(2, rng)
        moved = pullback(rep, elements[i], rho)
        assert abs(vn_entropy(moved) - vn_entropy(rho)) <= 1e-10
    print("criterion 6 (partition entropy log n, entropy invariance): PASS")


def test_criterion_7_bundle_fields():
    specs = {
        "su2": BundleSpec(
            tuple(f"x{i}" for i in range(5)), {f"x{i}": su2_fundamental() for i in range(5)}
        ),
        "u1": BundleSpec(
            tuple(f"y{i}" for i in range(5)), {f"y{i}": u1_rep([1, -1]) for i in range(5)}
        ),
        "z2": BundleSpec(
            tuple(f"z{i}" for i in range(5)), {f"z{i}": cyclic_rep(2, dim=2) for i in range(5)}
        ),
    }
    for name, spec in specs.items():
        field = assign_invariant_field(spec, seed=17)
        for idx, label in enumerate(spec.points):
            rep = spec.reps[label]
            state = restrict(field, label)
            for g in haar_sample(rep, 808 + idx, 50):
                assert trace_distance(pullback(rep, g, state), state) <= 1e-6, (name, label)
            sep = is_separating(state)
            assert sep.separating and sep.min_eigenvalue > 1e-10, (name, label)
    print("criterion 7 (5-point bundles: invariant separating restrictions): PASS")


def test_criterion_8_isometry_affinity():
    rep = su2_fundamental()
    rng = philox_stream(505)
    elements = haar_sample(rep, 5050, 500)
    for i in range(500):
        g = elements[i]
        x, y = random_density(2, rng), random_density(2, rng)
        lhs = trace_distance(pullback(rep, g, x), pullback(rep, g, y))
        assert abs(lhs - trace_distance(x, y)) <= 1e-9
        lam = float(rng.random())
        mixed = DensityState(2, lam * x.rho + (1 - lam) * y.rho)
        direct = pullback(rep, g, mixed).rho
        combo = lam * pullback(rep, g, x).rho + (1 - lam) * pullback(rep, g, y).rho
        assert np.abs(direct - combo).max() <= 1e-9
    print("criterion 8 (isometry and affinity of the dual maps): PASS")
