import math

import numpy as np
import pytest

from wignerlab import (
    DensityState,
    MethodUnsupported,
    SU2Element,
    act,
    cyclic_group,
    element_unitary,
    haar_average,
    haar_sample,
    invariance_residual,
    is_separating,
    maximally_mixed,
    pair,
    pullback,
    pure_state,
    random_density,
    su2_fundamental,
    su2_irrep,
    trace_distance,
    trivial_rep,
    u1_rep,
)
from wignerlab import groups
from wignerlab.states import repair_psd

from conftest import reference_haar_sample, reference_unitary, random_hermitian


def test_density_state_validation():
    with pytest.raises(ValueError):
        DensityState(2, np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        DensityState(2, np.array([[1.5, 0], [0, -0.5]], dtype=complex))  # negative
    with pytest.raises(ValueError):
        DensityState(2, np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))  # non-Hermitian


def test_pair_examples(rng):
    A = random_hermitian(3, rng)
    assert pair(maximally_mixed(3), A) == pytest.approx(np.trace(A).real / 3)
    e1 = pure_state([1, 0, 0])
    assert pair(e1, A) == pytest.approx(A[0, 0])
    rho = random_density(3, rng)
    assert pair(rho, np.eye(3)) == pytest.approx(1.0)
    assert abs(pair(rho, A).imag) <= 1e-12


def test_pullback_identity_and_spectrum(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    assert trace_distance(pullback(rep, SU2Element(0, 0, 0), rho), rho) <= 1e-14
    g = haar_sample(rep, 2, 1)[0]
    moved = pullback(rep, g, rho)
    assert np.abs(moved.eigenvalues() - rho.eigenvalues()).max() <= 1e-10


def test_orbit_samples_inherit_separating_seed(rng):
    rep = su2_fundamental()
    seed = random_density(2, rng)  # full rank almost surely
    assert is_separating(seed).separating
    samples = [pullback(rep, g, seed) for g in haar_sample(rep, 21, 6)]
    for s in samples:
        # pullbacks are isospectral with the seed, hence separating
        assert np.abs(s.eigenvalues() - seed.eigenvalues()).max() <= 1e-10
        assert is_separating(s).separating
    w = rng.random(6)
    w /= w.sum()
    mix = DensityState(2, sum(wi * s.rho for wi, s in zip(w, samples)))
    assert is_separating(mix).separating


def test_pullback_flips_basis_state():
    rep = su2_fundamental()
    rho = pure_state([1, 0])
    out = pullback(rep, SU2Element(0, math.pi, 0), rho)
    assert np.abs(out.rho - np.diag([0.0, 1.0])).max() <= 1e-10


def test_pullback_pairing_adjunction(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    A = random_hermitian(2, rng)
    g = haar_sample(rep, 4, 1)[0]
    assert pair(pullback(rep, g, rho), A) == pytest.approx(pair(rho, act(rep, g, A)))


def test_haar_average_su2_schur(rng):
    rep = su2_fundamental()
    for _ in range(3):
        rho = random_density(2, rng)
        res = haar_average(rep, rho, method="quadrature")
        assert trace_distance(res.state, maximally_mixed(2)) <= 1e-8
        assert res.residual <= 1e-8


def test_haar_average_su2_irreps_exact(rng):
    for d in range(2, 11):
        rho = random_density(d, rng)
        res = haar_average(su2_irrep(d), rho, method="quadrature")
        assert np.abs(res.state.rho - np.eye(d) / d).max() <= 1e-12, d
        assert res.residual <= 1e-12, d


def test_haar_average_su2_quadrature_nodes(rng, monkeypatch):
    # order max(4, 2d-1): (floor(J)+1) * ceil((floor(J)+1)/2) * (2J+1) nodes
    table = groups.su2_quadrature_nodes
    built = []

    def recorded(order):
        built.append(table(order))
        return built[-1]

    monkeypatch.setattr(groups, "su2_quadrature_nodes", recorded)
    nodes = []
    for d in range(2, 9):
        built.clear()
        haar_average(su2_irrep(d), random_density(d, rng), method="quadrature")
        (elements, weights), = built
        assert len(weights) == len(elements)
        nodes.append(len(elements))
        seen = []
        groups.haar_quadrature_su2(lambda el: seen.append(el) or np.eye(1), max(4, 2 * d - 1))
        assert tuple(seen) == elements
        assert built[1][1].tobytes() == weights.tobytes()
    assert nodes == [8, 30, 56, 135, 198, 364, 480]


def test_haar_average_u1_dephasing(rng):
    rep = u1_rep([1, -1])
    rho = random_density(2, rng)
    res = haar_average(rep, rho, method="quadrature")
    expected = np.diag(np.diag(rho.rho))
    assert np.abs(res.state.rho - expected).max() <= 1e-12


def test_haar_average_finite_trivial(rng):
    rep = trivial_rep(cyclic_group(2), 3)
    rho = random_density(3, rng)
    res = haar_average(rep, rho, method="finite_exact")
    assert trace_distance(res.state, rho) <= 1e-12


def test_haar_average_method_validation(rng):
    from wignerlab import su3_fundamental

    rep = trivial_rep(cyclic_group(2), 2)
    rho = random_density(2, rng)
    with pytest.raises(MethodUnsupported):
        haar_average(rep, rho, method="quadrature")
    with pytest.raises(MethodUnsupported):
        haar_average(su2_fundamental(), random_density(2, rng), method="finite_exact")
    with pytest.raises(MethodUnsupported):
        haar_average(su3_fundamental(), random_density(3, rng), method="quadrature")
    with pytest.raises(MethodUnsupported):
        haar_average(rep, rho, method="nonsense")


def test_dimension_mismatches_raise(rng):
    from wignerlab import DimensionMismatch, act

    rep = su2_fundamental()
    rho3 = random_density(3, rng)
    with pytest.raises(DimensionMismatch):
        pair(rho3, np.eye(2))
    g = haar_sample(rep, 1, 1)[0]
    with pytest.raises(DimensionMismatch):
        pullback(rep, g, rho3)
    with pytest.raises(DimensionMismatch):
        act(rep, g, np.eye(3))
    with pytest.raises(DimensionMismatch):
        haar_average(rep, rho3)


def test_haar_average_output_invariance(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    state = haar_average(rep, rho, method="quadrature").state
    for g in haar_sample(rep, 99, 100):
        assert trace_distance(pullback(rep, g, state), state) <= 1e-7


def test_haar_average_auto_su3_is_cesaro_and_invariant(rng):
    from wignerlab import cyclic_rep, su3_fundamental

    res = haar_average(su3_fundamental(), random_density(3, rng))
    assert res.method == "cesaro"
    assert res.residual <= 1e-7

    # Cesaro runs on every group kind; on Z_4 it averages over a generator,
    # so the limit is the exact average
    rep = cyclic_rep(4, dim=4)
    rho = random_density(4, rng)
    res = haar_average(rep, rho, method="cesaro")
    assert res.method == "cesaro"
    assert res.residual <= 1e-7
    exact = haar_average(rep, rho, method="finite_exact").state
    assert trace_distance(res.state, exact) <= 1e-9


def test_haar_average_cesaro_on_a_finite_group_averages_over_generators():
    # the 3 Haar samples of this order-24 group at seed 0 are indices 0 (the
    # identity), 23 and 14, which do not generate it: their Cesaro limit had
    # residual 0.20 over the whole group
    rep = groups.product_rep(groups.cyclic_rep(3, dim=2), groups.quaternion_rep(2))
    rho = random_density(4, groups.philox_stream(5, 0))
    res = haar_average(rep, rho, method="cesaro")
    assert res.residual <= 1e-11
    exact = haar_average(rep, rho, method="finite_exact").state
    assert trace_distance(res.state, exact) <= 1e-11
    # the trivial group has no generators: its Cesaro map is the identity
    trivial = groups.cyclic_rep(1, dim=3)
    rho = random_density(3, groups.philox_stream(5, 1))
    res = haar_average(trivial, rho, method="cesaro")
    assert trace_distance(res.state, rho) <= 1e-15


def test_haar_average_montecarlo_within_standard_errors(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    count = 4096
    res = haar_average(rep, rho, method="montecarlo", seed=5, count=count)
    # entrywise standard error of the sample mean, aggregated to a trace-norm scale
    stack = np.stack([pullback(rep, g, rho).rho for g in haar_sample(rep, 5, count)])
    se = np.linalg.norm(stack.std(axis=0, ddof=1)) / math.sqrt(count)
    exact = haar_average(rep, rho, method="quadrature").state
    assert trace_distance(res.state, exact) <= 5 * math.sqrt(2) * se


def test_montecarlo_average_deterministic(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    a = haar_average(rep, rho, method="montecarlo", seed=77, count=128)
    b = haar_average(rep, rho, method="montecarlo", seed=77, count=128)
    assert np.array_equal(a.state.rho, b.state.rho)


def test_orbit_barycenter_error_decays_like_sqrt_n(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    exact = haar_average(rep, rho, method="quadrature").state

    # the Monte Carlo mean of n pullbacks is the barycenter of n orbit points
    def mean_err(n):
        runs = [haar_average(rep, rho, method="montecarlo", seed=seed, count=n) for seed in range(32)]
        return np.mean([trace_distance(run.state, exact) for run in runs])

    # sixteen times the samples should quarter the error: 1/sqrt(n) gives 0.25
    # and the run reads 0.23, where an error falling like n^-0.19 would read
    # 0.59.  Over 32 seeds the ratio varies by about 0.02 (0.22 to 0.27 for
    # seeds 0..255 in blocks of 32); over 8 it ranged 0.17 to 0.35
    ratio = mean_err(256) / mean_err(16)
    assert 0.1 < ratio < 0.35


def test_is_separating_cases():
    assert is_separating(maximally_mixed(4)).separating
    res = is_separating(pure_state([0, 1]))
    assert not res.separating
    assert np.abs(res.witness - np.diag([1.0, 0.0])).max() <= 1e-12
    assert res.witness_pairing <= 1e-10
    res3 = is_separating(DensityState(3, np.diag([0.5, 0.5, 0.0]).astype(complex)))
    assert not res3.separating
    assert np.abs(res3.witness - np.diag([0.0, 0.0, 1.0])).max() <= 1e-12


def test_pullback_isometry_and_affinity(rng):
    rep = su2_fundamental()
    for i in range(50):
        x, y = random_density(2, rng), random_density(2, rng)
        g = haar_sample(rep, 100 + i, 1)[0]
        lhs = trace_distance(pullback(rep, g, x), pullback(rep, g, y))
        assert abs(lhs - trace_distance(x, y)) <= 1e-9
        lam = rng.random()
        mixed = DensityState(2, lam * x.rho + (1 - lam) * y.rho)
        direct = pullback(rep, g, mixed).rho
        combo = lam * pullback(rep, g, x).rho + (1 - lam) * pullback(rep, g, y).rho
        assert np.abs(direct - combo).max() <= 1e-10


def test_continuity_bound_and_limit(rng):
    rep = su2_fundamental()
    rho = random_density(2, rng)
    g = SU2Element(0.3, 1.1, -0.4)
    for t in (1.0, 0.1, 0.01):
        h = SU2Element(0.3, 1.1 + t, -0.4)
        lhs = trace_distance(pullback(rep, g, rho), pullback(rep, h, rho))
        gap = np.linalg.norm(element_unitary(rep, g) - element_unitary(rep, h), 2)
        assert lhs <= 2 * gap + 1e-9
    h = SU2Element(0.3, 1.1 + 1e-7, -0.4)
    assert trace_distance(pullback(rep, g, rho), pullback(rep, h, rho)) < 1e-6


def test_repair_psd_bounds():
    # above the -1e-12 clip threshold: left alone
    mild = np.diag([1.0 + 5e-13, -5e-13]).astype(complex)
    out, mag = repair_psd(mild)
    assert mag <= 1e-10
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    # below the threshold but within the repair budget: clipped to PSD
    out, mag = repair_psd(np.diag([1.0 + 5e-12, -5e-12]).astype(complex))
    assert 0 < mag <= 1e-10
    assert np.linalg.eigvalsh(out).min() >= 0
    with pytest.raises(ValueError):
        repair_psd(np.diag([1.2, -0.2]).astype(complex))


def test_invariance_residual_probes_deterministic(rng):
    rep = su2_fundamental()
    state = maximally_mixed(2)
    assert invariance_residual(rep, state, probes=10, seed=3) == invariance_residual(
        rep, state, probes=10, seed=3
    )


@pytest.mark.parametrize(
    "rep",
    [su2_irrep(2), su2_irrep(8), su2_irrep(9), su2_irrep(16), groups.su3_rep(6),
     u1_rep([0, 1, -1, 2]), groups.cyclic_rep(5), groups.quaternion_rep(5)],
    ids=lambda rep: rep.name,
)
def test_invariance_residual_is_bitwise_the_pullback_loop(rep):
    # d > 8 sums more singular values than numpy's unrolled block, so its
    # pairwise summation runs both in the stacked sum and in trace_norm
    rho = random_density(rep.dim, groups.philox_stream(77, rep.dim))
    finite = groups.finite_elements(rep.group) if rep.group.kind == "finite" else None
    for state in (rho, haar_average(rep, rho).state):
        for seed in (0, 9):
            probes = finite or groups.haar_sample(rep, seed, 20)
            expected = max(trace_distance(pullback(rep, g, state), state) for g in probes)
            assert invariance_residual(rep, state, probes=20, seed=seed) == expected


def test_state_json_roundtrip(rng):
    rho = random_density(3, rng)
    back = DensityState.from_json(rho.to_json())
    assert np.array_equal(back.rho, rho.rho)
    with pytest.raises(ValueError):
        DensityState.from_json({"d": 2})


def test_haar_average_residual_is_computed_once_on_first_read(rng, monkeypatch):
    from wignerlab import states

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return invariance_residual(*args, **kwargs)

    monkeypatch.setattr(states, "invariance_residual", counted)
    rho = random_density(3, rng)
    for rep, method in ((su2_irrep(3), "auto"), (groups.su3_fundamental(), "cesaro"),
                        (su2_irrep(3), "montecarlo")):
        calls.clear()
        result = haar_average(rep, rho, method=method, count=64)
        assert calls == []
        assert result.residual == invariance_residual(rep, result.state)
        assert result.residual == invariance_residual(rep, result.state)
        assert len(calls) == 1


def _reference_su2_quadrature(rep, rho):
    """The SU(2) product rule of order max(4, 2d-1) as one triple loop over
    (phi, theta, psi) nodes, one ``reference_unitary`` and one term per node."""
    two_j = max(4, 2 * rep.dim - 1) - 1
    n_phi, n_psi = two_j // 2 + 1, two_j + 1
    x, w_theta = np.polynomial.legendre.leggauss((n_phi + 1) // 2)
    w_phi, w_psi = 2 * math.pi / n_phi, 4 * math.pi / n_psi
    acc, mass = None, 0.0
    for phi in 2 * math.pi * np.arange(n_phi) / n_phi:
        for j, theta in enumerate(np.arccos(x)):
            for psi in 4 * math.pi * np.arange(n_psi) / n_psi:
                w = w_phi * w_theta[j] * w_psi
                U = reference_unitary(rep, SU2Element(
                    phi, theta, psi - 4 * math.pi if psi > 2 * math.pi else psi))
                val = U.conj().T @ rho.rho @ U
                acc = w * val if acc is None else acc + w * val
                mass += w
    return acc / mass


def _reference_average(rep, rho, method, seed=0, count=4096, generators=3, probes=20):
    """haar_average computed one element at a time, on reference samples."""
    from wignerlab import cesaro_fixed_point, WignerProblem
    from wignerlab.matrixcore import pairwise_mean

    kind = rep.group.kind
    finite = groups.finite_elements(rep.group) if kind == "finite" else None
    if method == "cesaro":
        problem = WignerProblem(rep, tuple(reference_haar_sample(rep, seed, generators)))
        state = cesaro_fixed_point(problem, rho, tol=1e-11)
    else:
        if method == "quadrature" and kind == "su2":
            avg = _reference_su2_quadrature(rep, rho)
        else:
            if method == "finite_exact":
                elements = finite
            elif method == "quadrature":
                n = max(2 * (max(rep.meta["weights"]) - min(rep.meta["weights"])) + 1, 8)
                elements = [groups.U1Element(2.0 * math.pi * k / n) for k in range(n)]
            else:
                elements = reference_haar_sample(rep, seed, count)
            avg = pairwise_mean(np.stack([
                U.conj().T @ rho.rho @ U for U in (reference_unitary(rep, g) for g in elements)
            ]))
        state = DensityState(rho.d, repair_psd(avg)[0])
    probe_elements = finite or reference_haar_sample(rep, 0, probes)
    residual = max(trace_distance(pullback(rep, g, state), state) for g in probe_elements)
    return state, residual


@pytest.mark.parametrize(
    "rep, method",
    [
        (groups.su3_rep(3), "montecarlo"),
        (groups.su3_rep(6), "montecarlo"),
        (su2_irrep(4), "montecarlo"),
        (u1_rep([0, 1, -2, 3]), "montecarlo"),
        (groups.cyclic_rep(5), "finite_exact"),
        (groups.quaternion_rep(5), "finite_exact"),
        (u1_rep([0, 2, -1, 1]), "quadrature"),
        (su2_irrep(2), "quadrature"),
        (su2_irrep(5), "quadrature"),
        (su2_irrep(8), "quadrature"),
        (groups.su3_rep(3), "auto"),
    ],
    ids=lambda x: x if isinstance(x, str) else x.name,
)
def test_haar_average_is_bitwise_the_per_element_reference(rep, method):
    rho = random_density(rep.dim, groups.philox_stream(2024, rep.dim))
    result = haar_average(rep, rho, method=method, seed=11)
    ref_method = "cesaro" if method == "auto" else method
    state, residual = _reference_average(rep, rho, ref_method, seed=11)
    assert result.method == ref_method
    assert result.state.rho.tobytes() == state.rho.tobytes()
    assert result.residual == residual
