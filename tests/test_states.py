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

from wignerlab.matrixcore import frobenius

from conftest import reference_haar_sample, reference_unitary, random_hermitian


def test_density_state_validation():
    with pytest.raises(ValueError, match=r"^density matrix trace \(2\+0j\) differs from 1$"):
        DensityState(2, np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="^density matrix has eigenvalue -0.5 below -1e-10$"):
        DensityState(2, np.array([[1.5, 0], [0, -0.5]], dtype=complex))
    with pytest.raises(ValueError, match="^density matrix is not Hermitian to 1e-10$"):
        DensityState(2, np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


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
    for d in (*range(2, 11), 16, 24, 32):
        rho = random_density(d, rng)
        res = haar_average(su2_irrep(d), rho, method="quadrature")
        assert np.abs(res.state.rho - np.eye(d) / d).max() <= 1e-12, d
        assert res.residual <= 1e-12, d


def test_haar_average_su2_sums_one_axis_at_a_time(rng, monkeypatch):
    # order max(4, 2d-1): floor(J)+1 phi nodes, ceil((floor(J)+1)/2) theta
    # nodes and 2J+1 psi nodes, one conjugation each; the product table is
    # the three rules' product
    rules = groups.su2_axis_rules
    built = []

    def recorded(order):
        built.append((order, rules(order)))
        return built[-1][1]

    monkeypatch.setattr(groups, "su2_axis_rules", recorded)
    sizes = []
    for d in range(2, 9):
        built.clear()
        haar_average(su2_irrep(d), random_density(d, rng), method="quadrature")
        (order, axes), = built
        assert order == max(4, 2 * d - 1)
        sizes.append(sum(len(nodes) for nodes, _ in axes))
        for axis, (nodes, weights) in enumerate(axes):
            assert len(weights) == len(nodes)
            assert not np.delete(nodes.array, axis, axis=1).any()
        (phis, w_phi), (thetas, w_theta), (psis, w_psi) = axes
        table, weights = groups.su2_quadrature_nodes(order)
        grid = table.array.reshape(len(phis), len(thetas), len(psis), 3)
        assert (grid[..., 0] == phis.array[:, 0, None, None]).all()
        assert (grid[..., 1] == thetas.array[None, :, 1, None]).all()
        assert (grid[..., 2] == psis.array[None, None, :, 2]).all()
        product = np.multiply.outer(np.multiply.outer(w_phi, w_theta), w_psi)
        assert weights.tobytes() == product.tobytes()
    assert sizes == [7, 10, 13, 17, 20, 24, 27]


def _conjugated_irrep(d):
    """su2_irrep(d) in the basis of a fixed Haar unitary V: its torus
    U(phi, 0, 0) is not diagonal."""
    V = groups.haar_unitary(d, groups.philox_stream(31, d))
    base = su2_irrep(d)
    return groups.UnitaryRep(base.group, d, lambda batch: V @ base.stack_fn(batch) @ V.conj().T,
                             f"{base.name}-conj")


@pytest.mark.parametrize(
    "rep",
    [*(su2_irrep(d) for d in range(2, 11)),
     groups.direct_sum_rep(su2_irrep(2), su2_irrep(2), su2_irrep(3)),
     groups.direct_sum_rep(su2_irrep(3), su2_irrep(3)),
     _conjugated_irrep(4)],
    ids=lambda rep: rep.name,
)
def test_haar_average_su2_quadrature_is_the_product_rule(rep):
    rho = random_density(rep.dim, groups.philox_stream(2025, rep.dim))
    state = haar_average(rep, rho, method="quadrature").state
    expected = repair_psd(_product_rule_su2_quadrature(rep, rho))[0]
    assert np.abs(state.rho - expected).max() <= 1e-13


def test_averages_build_no_per_element_object(monkeypatch):
    # Monte Carlo, SU(2) quadrature and a finite group's residual read the
    # batches' arrays only: no element object is made, by a constructor or
    # by a batch row
    su3, su2, q8 = groups.su3_rep(6), su2_irrep(8), groups.quaternion_rep(5)
    rho6, rho8 = (random_density(d, groups.philox_stream(9, d)) for d in (6, 8))
    groups.su2_quadrature_nodes.cache_clear()

    def refuse(*args):
        raise AssertionError("a per-element object was built")

    for cls in (groups.FiniteElement, groups.U1Element, groups.SU2Element, groups.SU3Element):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    for cls in (groups.ElementBatch, groups.SU3Batch):
        monkeypatch.setattr(cls, "_row", refuse)
    with pytest.raises(AssertionError, match="per-element"):
        list(groups.haar_sample(su3, 1, 2))
    assert haar_average(su3, rho6, "montecarlo").method == "montecarlo"
    assert haar_average(su2, rho8, "quadrature").method == "quadrature"
    assert invariance_residual(q8, maximally_mixed(5)) <= 1e-12


def test_haar_average_u1_dephasing(rng):
    rep = u1_rep([1, -1])
    rho = random_density(2, rng)
    res = haar_average(rep, rho, method="quadrature")
    expected = np.diag(np.diag(rho.rho))
    assert np.abs(res.state.rho - expected).max() <= 1e-12


def test_u1_quadrature_covers_the_recorded_weights():
    # weights 0 and 257: a fixed 257-point grid sees the phase e^{i 257 t} as
    # 1 and returns rho unchanged; the sum's recorded weights give the right grid
    rho = DensityState(2, np.array([[0.5, 0.4], [0.4, 0.5]]))
    summed = groups.direct_sum_rep(u1_rep([0]), u1_rep([257]))
    assert summed.meta["weights"] == (0, 257)
    for rep in (summed, u1_rep([0, 257])):
        res = haar_average(rep, rho)
        assert np.abs(res.state.rho - np.eye(2) / 2).max() <= 1e-15 and res.residual <= 1e-14
    padded = groups.direct_sum_rep(u1_rep([3]), trivial_rep(groups.U1, 2))
    assert trivial_rep(groups.U1, 2).meta["weights"] == (0, 0)
    assert padded.meta["weights"] == (3, 0, 0)
    assert trivial_rep(cyclic_group(2), 2).meta == {}


def test_u1_quadrature_refuses_a_rep_without_weights():
    rho = DensityState(2, np.array([[0.5, 0.4], [0.4, 0.5]]))
    bare = groups.UnitaryRep(groups.U1, 1, u1_rep([257]).stack_fn, "bare")
    summed = groups.direct_sum_rep(u1_rep([0]), bare)
    assert "weights" not in summed.meta
    for rep in (summed, groups.UnitaryRep(groups.U1, 2, summed.stack_fn, "bare2")):
        for method in ("auto", "quadrature"):
            with pytest.raises(MethodUnsupported) as info:
                haar_average(rep, rho, method=method)
            assert str(info.value) == f"U(1) representation {rep.name!r} records no weights"


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


def _repair_inputs():
    """Inputs of repair_psd: seeded states of rank 1 to d with Hermitian
    noise, clipped or not; a negative trace; a trace of 1e-3."""
    rng = groups.philox_stream(0x5EA1)
    for d in (1, 2, 3, 5, 8, 16):
        for rank in sorted({1, (d + 1) // 2, d}):
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            rho = g @ g.conj().T
            for noise in (0.0, 2e-13, 1.5e-12):
                yield rho / np.trace(rho).real + noise / math.sqrt(d) * random_hermitian(d, rng)
    yield -1e-13 * np.eye(3, dtype=complex)
    yield np.diag([1e-3 + 5e-14, -5e-14]).astype(complex)


def test_a_state_from_repair_passes_every_check_of_the_constructor():
    paths = set()
    for M in _repair_inputs():
        repair = repair_psd(M)
        paths.add(repair.lowest is None)
        state = DensityState._from_repair(len(M), repair)
        assert state == DensityState(len(M), repair[0]) and not state.rho.flags.writeable
        rho = state.rho
        assert frobenius(rho - rho.conj().T) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
    # both the clipped and the unclipped path ran
    assert paths == {True, False}


def test_a_state_from_repair_refuses_what_the_constructor_refuses():
    # trace 1e-3 with an eigenvalue of -5e-13: not clipped, and the repaired
    # matrix's lowest eigenvalue is -5e-10
    M = np.diag([1e-3 + 5e-13, -5e-13]).astype(complex)
    repair = repair_psd(M)
    assert repair.lowest is not None
    pattern = r"^density matrix has eigenvalue -(5e-10|5\.0000\d*e-10|4\.9999\d*e-10) below -1e-10$"
    with pytest.raises(ValueError, match=pattern):
        DensityState(2, repair[0])
    with pytest.raises(ValueError, match=pattern):
        DensityState._from_repair(2, repair)


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


def _su2_rule_sizes(rep):
    """n_phi, the Gauss-Legendre nodes and weights in cos(theta), and n_psi of
    the SU(2) product rule of order max(4, 2d-1)."""
    two_j = max(4, 2 * rep.dim - 1) - 1
    n_phi, n_psi = two_j // 2 + 1, two_j + 1
    x, w_theta = np.polynomial.legendre.leggauss((n_phi + 1) // 2)
    return n_phi, x, w_theta, n_psi


def _product_rule_su2_quadrature(rep, rho):
    """The SU(2) product rule of order max(4, 2d-1) as one triple loop over
    (phi, theta, psi) nodes, one ``reference_unitary`` and one term per node."""
    n_phi, x, w_theta, n_psi = _su2_rule_sizes(rep)
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


def _reference_su2_quadrature(rep, rho):
    """The same product rule one Euler axis at a time: rho pulled back through
    the phi rule, then theta, then psi, one ``reference_unitary`` and one
    term per node, each pass divided by its weights' sum."""
    n_phi, x, w_theta, n_psi = _su2_rule_sizes(rep)
    psis = 4 * math.pi * np.arange(n_psi) / n_psi
    rules = [
        [(SU2Element(phi, 0.0, 0.0), 2 * math.pi / n_phi)
         for phi in 2 * math.pi * np.arange(n_phi) / n_phi],
        [(SU2Element(0.0, theta, 0.0), w) for theta, w in zip(np.arccos(x), w_theta)],
        [(SU2Element(0.0, 0.0, psi - 4 * math.pi if psi > 2 * math.pi else psi), 4 * math.pi / n_psi)
         for psi in psis],
    ]
    avg = rho.rho
    for rule in rules:
        acc, mass = None, 0.0
        for g, w in rule:
            U = reference_unitary(rep, g)
            val = w * (U.conj().T @ avg @ U)
            acc = val if acc is None else acc + val
            mass += w
        avg = acc / mass
    return avg


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
