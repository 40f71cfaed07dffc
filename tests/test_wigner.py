import numpy as np
import pytest

from wignerlab import (
    DensityState,
    FiniteElement,
    NoConvergence,
    WignerProblem,
    averaged_fixed_subspace,
    cesaro_fixed_point,
    commutant,
    cyclic_rep,
    element_unitary,
    haar_sample,
    maximally_mixed,
    pullback,
    random_density,
    standard_problem_batch,
    su2_fundamental,
    su2_irrep,
    su3_fundamental,
    trace_distance,
    verify_wigner_identity,
    wigner_subspace,
)
from wignerlab.groups import identity_element
from wignerlab.matrixcore import Subspace, trace_norm, unvec, vec
from wignerlab.states import repair_psd
from wignerlab.wigner import (
    _power_sum,
    averaged_superop,
    intersect_alternating,
    intersect_stacked,
    problem_seed_state,
)

from conftest import PAULI_X, PAULI_Z, element_index, matrix_group


@pytest.fixture(scope="module")
def pauli_rep():
    # the order-8 matrix group generated by Pauli X and Z, with X and Z
    # available as honest group elements
    group, rep = matrix_group([PAULI_X, PAULI_Z])
    return rep, element_index(rep, PAULI_X), element_index(rep, PAULI_Z)


def test_wigner_subspace_identity_element():
    rep = su2_fundamental()
    sub = wigner_subspace(rep, identity_element(rep.group))
    assert sub.dim == 4


def test_wigner_subspace_pauli_x(pauli_rep):
    rep, gx, _ = pauli_rep
    sub = wigner_subspace(rep, gx)
    assert sub.dim == 2
    assert sub.residual(vec(np.eye(2, dtype=complex))) <= 1e-10
    assert sub.residual(vec(PAULI_X)) <= 1e-10


def test_wigner_subspace_generic_su3_element():
    rep = su3_fundamental()
    g = haar_sample(rep, 77, 1)[0]
    U = element_unitary(rep, g)
    phases = np.angle(np.linalg.eigvals(U))
    assert np.abs(np.subtract.outer(phases, phases))[~np.eye(3, dtype=bool)].min() > 1e-3
    sub = wigner_subspace(rep, g)
    # oracle: commutant dimension is the sum of squared eigenvalue multiplicities
    assert sub.dim == 3


def test_wigner_sets_match_the_commutant_kernel_and_multiplicities():
    # W_g two independent ways, and the closed form sum of m_lambda^2 over
    # U(g)'s eigenvalue multiplicities (the number of equal eigenvalue pairs);
    # on these problems equal eigenvalues agree exactly, others differ by > 0.02
    for problem in standard_problem_batch(40):
        for g in problem.elements:
            U = element_unitary(problem.rep, g)
            lam = np.linalg.eigvals(U)
            pairs = int(np.sum(np.abs(np.subtract.outer(lam, lam)) < 1e-6))
            assert wigner_subspace(problem.rep, g).dim == commutant([U], problem.d).dim == pairs


def test_averaged_subspace_trivial_cases(pauli_rep):
    rep, gx, gz = pauli_rep
    e = identity_element(rep.group)
    assert averaged_fixed_subspace(WignerProblem(rep, (e, e))).dim == 4
    single = averaged_fixed_subspace(WignerProblem(rep, (gx,)))
    assert single.dim == wigner_subspace(rep, gx).dim
    both = averaged_fixed_subspace(WignerProblem(rep, (gx, gz)))
    assert both.dim == 1


def test_verify_identity_identity_elements():
    rep = su2_fundamental()
    e = identity_element(rep.group)
    report = verify_wigner_identity(WignerProblem(rep, (e, e, e)))
    assert report.verdict
    assert report.intersection_dim == 4 and report.averaged_dim == 4


def test_verify_identity_pauli_pair(pauli_rep):
    rep, gx, gz = pauli_rep
    report = verify_wigner_identity(WignerProblem(rep, (gx, gz)))
    assert report.verdict
    assert report.element_dims == (2, 2)
    assert report.intersection_dim == 1 and report.averaged_dim == 1
    assert report.max_principal_angle <= 1e-8
    assert report.inclusion_residual <= 1e-10


def test_verify_identity_three_haar_su2():
    rep = su2_fundamental()
    problem = WignerProblem(rep, tuple(haar_sample(rep, 55, 3)))
    report = verify_wigner_identity(problem)
    assert report.verdict
    assert report.intersection_dim == 1 and report.averaged_dim == 1


def test_intersection_algorithms_agree(rng):
    subs = []
    for _ in range(3):
        m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(m)
        subs.append(Subspace(6, q))
    a = intersect_stacked(subs)
    b = intersect_alternating(subs)
    assert a.dim == b.dim


def test_nested_families_weakly_decreasing(pauli_rep):
    rep, gx, gz = pauli_rep
    elements = (gx, gz, element_index(rep, PAULI_X @ PAULI_Z))
    dims = []
    for k in range(1, len(elements) + 1):
        problem = WignerProblem(rep, elements[:k])
        report = verify_wigner_identity(problem)
        assert report.verdict
        dims.append(report.intersection_dim)
        # the maximally mixed state is always fixed
        S = averaged_superop(problem)
        v = vec(maximally_mixed(rep.dim).rho)
        assert np.linalg.norm(S @ v - v) <= 1e-12
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def _cesaro_by_steps(problem, rho0, tol=1e-10, max_iter=10**5):
    """Reference: restarted Cesaro windows summed one map application at a
    time, the windows and stopping rule of cesaro_fixed_point."""
    S = averaged_superop(problem)
    side = problem.d

    def t_residual(v):
        return trace_norm(unvec(S @ v - v, side))

    sigma = vec(rho0.rho)
    residual = t_residual(sigma)
    iterations, window = 0, 840
    while residual > tol:
        if iterations >= max_iter:
            raise NoConvergence("reference did not converge", residual)
        w = min(window, max_iter - iterations)
        acc = np.zeros_like(sigma)
        cur = sigma
        for _ in range(w):
            acc = acc + cur
            cur = S @ cur
        sigma = acc / w
        iterations += w
        window *= 2
        residual = t_residual(sigma)
    repaired, _ = repair_psd(unvec(sigma, side))
    return DensityState(side, repaired)


@pytest.mark.parametrize("w", [1, 2, 3, 5, 840, 1000])
def test_power_sum_is_the_explicit_sum(w):
    rep = su2_irrep(3)
    S = averaged_superop(WignerProblem(rep, tuple(haar_sample(rep, 5, 3))))
    total, power = np.zeros_like(S), np.eye(S.shape[0], dtype=S.dtype)
    for _ in range(w):
        total, power = total + power, power @ S
    got_total, got_power = _power_sum(S, w)
    # S is an average of unitaries: every power has norm <= 1, so the sum of
    # w of them may differ by a few ulps per term
    assert np.abs(got_total - total).max() <= 1e-13 * w
    assert np.abs(got_power - power).max() <= 1e-13 * w


def test_cesaro_matches_step_loop_on_standard_batch():
    for i, problem in enumerate(standard_problem_batch(count=20, base_seed=41)):
        rho0 = problem_seed_state(problem, 41 + i)
        out = cesaro_fixed_point(problem, rho0)
        assert np.abs(out.rho - _cesaro_by_steps(problem, rho0).rho).max() <= 1e-12


def test_cesaro_identity_map_returns_seed(rng):
    rep = su2_fundamental()
    rho0 = random_density(2, rng)
    out = cesaro_fixed_point(WignerProblem(rep, (identity_element(rep.group),)), rho0)
    assert trace_distance(out, rho0) <= 1e-12


def test_cesaro_pauli_pair_reaches_maximally_mixed(pauli_rep, rng):
    rep, gx, gz = pauli_rep
    rho0 = random_density(2, rng)
    out = cesaro_fixed_point(WignerProblem(rep, (gx, gz)), rho0, tol=1e-10)
    assert trace_distance(out, maximally_mixed(2)) <= 1e-9


def test_cesaro_z2_dephasing():
    rep = cyclic_rep(2, dim=2)
    rho0 = DensityState(2, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    out = cesaro_fixed_point(WignerProblem(rep, (FiniteElement(0), FiniteElement(1))), rho0)
    assert np.abs(out.rho - np.diag([0.5, 0.5])).max() <= 1e-10


def test_cesaro_output_fixed_by_each_element(rng):
    rep = su2_fundamental()
    problem = WignerProblem(rep, tuple(haar_sample(rep, 91, 3)))
    rho0 = random_density(2, rng)
    tol = 1e-10
    out = cesaro_fixed_point(problem, rho0, tol=tol)
    for g in problem.elements:
        assert trace_distance(pullback(rep, g, out), out) <= 10 * tol


def test_cesaro_raises_no_convergence(rng):
    rep = su2_fundamental()
    problem = WignerProblem(rep, tuple(haar_sample(rep, 13, 2)))
    rho0 = random_density(2, rng)
    with pytest.raises(NoConvergence) as err:
        cesaro_fixed_point(problem, rho0, tol=1e-12, max_iter=3)
    assert err.value.residual > 0


def test_cesaro_truncated_last_window_matches_step_loop(rng):
    # max_iter 1000 = 840 + 160 and 2600 = 840 + 1680 + 80 cut the last window
    rep = su2_fundamental()
    problem = WignerProblem(rep, tuple(haar_sample(rep, 13, 2)))
    rho0 = random_density(2, rng)
    for max_iter in (1000, 2600):
        with pytest.raises(NoConvergence) as err:
            cesaro_fixed_point(problem, rho0, tol=1e-12, max_iter=max_iter)
        with pytest.raises(NoConvergence) as ref:
            _cesaro_by_steps(problem, rho0, tol=1e-12, max_iter=max_iter)
        assert abs(err.value.residual - ref.value.residual) <= 1e-12
    # residual 1.2e-3 after the first window, 1.8e-5 after the cut one
    out = cesaro_fixed_point(problem, rho0, tol=1e-4, max_iter=1000)
    ref_out = _cesaro_by_steps(problem, rho0, tol=1e-4, max_iter=1000)
    assert np.abs(out.rho - ref_out.rho).max() <= 1e-12


def test_standard_batch_is_deterministic():
    a = standard_problem_batch(count=12)
    b = standard_problem_batch(count=12)
    assert len(a) == 12
    for pa, pb in zip(a, b):
        assert pa.rep.name == pb.rep.name
        assert pa.elements == pb.elements


def test_standard_batch_builds_each_rep_config_once(monkeypatch):
    from wignerlab import groups

    built, build = [], groups.rep_from_config
    monkeypatch.setattr(groups, "rep_from_config", lambda c: built.append(dict(c)) or build(c))
    problems = standard_problem_batch(200)
    assert len(built) == 29
    assert all(built.count(c) == 1 for c in built)
    assert len({id(p.rep) for p in problems}) == 29


def test_problem_rejects_foreign_elements():
    rep = su2_fundamental()
    with pytest.raises(Exception):
        WignerProblem(rep, (FiniteElement(0),))
