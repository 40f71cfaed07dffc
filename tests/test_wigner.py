import hashlib
import json
import weakref

import numpy as np
import pytest

from wignerlab import (
    BadElement,
    DensityState,
    FiniteElement,
    NoConvergence,
    SU2Element,
    U1Element,
    WignerProblem,
    cesaro_fixed_point,
    commutant,
    cyclic_rep,
    element_unitaries,
    element_unitary,
    haar_sample,
    maximally_mixed,
    pullback,
    quaternion_rep,
    random_density,
    standard_problem_batch,
    su2_fundamental,
    su2_irrep,
    su3_fundamental,
    su3_rep,
    trace_distance,
    u1_rep,
    verify_wigner_identity,
    wigner_subspace,
)
from wignerlab import states
from wignerlab.groups import SU3Element, identity, inverse
from wignerlab.matrixcore import (
    Subspace,
    matrix_to_json,
    null_space,
    principal_angle_residual,
    trace_norm,
    unvec,
    vec,
)
from wignerlab.states import _power_sum, averaged_superop, repair_psd
from wignerlab.wigner import (
    WignerReport,
    intersect_alternating,
    intersect_stacked,
    problem_seed_state,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    assert_orthonormal,
    element_index,
    matrix_group,
    reference_cesaro,
    reference_power_sum,
)


@pytest.fixture(scope="module")
def pauli_rep():
    # the order-8 matrix group generated by Pauli X and Z, with X and Z
    # available as honest group elements
    group, rep = matrix_group([PAULI_X, PAULI_Z])
    return rep, element_index(rep, PAULI_X), element_index(rep, PAULI_Z)


def test_wigner_subspace_of_the_identity():
    rep = su2_fundamental()
    sub = wigner_subspace(rep, identity(rep.group)[0])
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
    [e] = identity(rep.group)
    assert verify_wigner_identity(WignerProblem(rep, (e, e))).averaged_dim == 4
    single = verify_wigner_identity(WignerProblem(rep, (gx,))).averaged_dim
    assert single == wigner_subspace(rep, gx).dim
    assert verify_wigner_identity(WignerProblem(rep, (gx, gz))).averaged_dim == 1


def test_verify_identity_on_identity_batches():
    rep = su2_fundamental()
    [e] = identity(rep.group)
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


def _equal_pairs(keys) -> int:
    """Pairs (a, b) with equal keys: sum of m^2 over the keys' multiplicities."""
    keys = np.asarray(keys)
    return int(np.sum(keys[:, None] == keys[None, :]))


def _closed_form_problems():
    """(problem, element dims, intersection dim), each dim a count of equal
    eigenvalue pairs of U(g) worked out by hand, not from a spectrum."""
    cases = []
    # the identity element twice. These reps give U(e) = I only to rounding,
    # so every singular value of T - I is rounding: a rank scale taken from
    # the largest of them counted each as rank and found dim 0
    for rep in [su2_irrep(d) for d in range(3, 9)] + [su3_rep(6)]:
        [e], d2 = identity(rep.group), rep.dim**2
        cases.append((WignerProblem(rep, (e, e)), [d2, d2], d2))
    # the central -1 of Q8 (index 1): U = -I on copies of the 2-d block, T = I
    for d in (2, 4, 6):
        cases.append((WignerProblem(quaternion_rep(d), (FiniteElement(1),)), [d * d], d * d))
    # su2_irrep(d) at Euler angles (2 pi / k, 0, 0): U = diag(e^{i m 2 pi / k}),
    # m = j - a, so eigenvalues a and b agree iff k divides a - b; k = 1 is the
    # central +-I of SU(2)
    for d in (2, 5, 8):
        rep = su2_irrep(d)
        for k in (1, 2, 3, 4):
            dim = _equal_pairs(np.arange(d) % k)
            cases.append((WignerProblem(rep, (SU2Element(2 * np.pi / k, 0.0, 0.0),)), [dim], dim))
    # two commuting diagonal elements: a, b agree under both iff 6 | a - b;
    # the family repeats an element
    rep, a = su2_irrep(8), np.arange(8)
    g2, g3 = SU2Element(np.pi, 0.0, 0.0), SU2Element(2 * np.pi / 3, 0.0, 0.0)
    dim2, dim3 = _equal_pairs(a % 2), _equal_pairs(a % 3)
    cases.append((WignerProblem(rep, (g2, g3)), [dim2, dim3], _equal_pairs(a % 6)))
    cases.append((WignerProblem(rep, (g3, g2, g3, g3)), [dim3, dim2, dim3, dim3],
                  _equal_pairs(a % 6)))
    # U(1) weights with repeats: at theta = 1 distinct weights have distinct
    # phases, so the dim is the sum of squared weight multiplicities, 15
    weights = [0, 0, 1, -1, 2, 2, 2]
    rep, g = u1_rep(weights), U1Element(1.0)
    dim = _equal_pairs(weights)
    cases.append((WignerProblem(rep, (g,)), [dim], dim))
    cases.append((WignerProblem(rep, (g, g, g)), [dim] * 3, dim))
    return cases


def test_closed_form_problems_verify_with_their_dims():
    for problem, element_dims, dim in _closed_form_problems():
        report = verify_wigner_identity(problem)
        assert list(report.element_dims) == element_dims, report.to_json()
        assert report.intersection_dim == report.averaged_dim == dim, report.to_json()
        assert report.verdict, report.to_json()
        assert [wigner_subspace(problem.rep, g).dim for g in problem.elements] == element_dims


@pytest.mark.parametrize("theta, dim", [(5e-11, 4), (5e-7, 2)])
def test_rank_decisions_on_either_side_of_the_margin(theta, dim):
    # T - I of diag(1, e^{i theta}) has singular values |e^{i theta} - 1| ~ theta
    # twice, fixed below tol = 1e-10 and kept above 100 tol
    rep = u1_rep([0, 1])
    g = U1Element(theta)
    assert verify_wigner_identity(WignerProblem(rep, (g,))).element_dims == (dim,)
    assert wigner_subspace(rep, g).dim == dim


def test_near_threshold_element_raises_instead_of_deciding():
    # singular values ~5e-9 lie in (tol, 100 tol]: no rank decision is made
    rep = u1_rep([0, 1])
    g = U1Element(5e-9)
    other = haar_sample(rep, 3, 1)[0]
    for call in (
        lambda: verify_wigner_identity(WignerProblem(rep, (g,))),
        lambda: verify_wigner_identity(WignerProblem(rep, (other, g))),
        lambda: wigner_subspace(rep, g),
    ):
        with pytest.raises(RuntimeError, match="rank cutoff"):
            call()


def test_verify_raises_when_the_spectrum_disagrees_with_the_commutant(monkeypatch):
    # the intersection may not exceed any element's Wigner set: a spectrum
    # that claims distinct eigenvalues for U(e) = I, whose commutant is all of
    # M_d, must stop verify
    rep = su2_irrep(3)
    problem = WignerProblem(rep, identity(rep.group))
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda U: np.exp(1j * np.arange(U.shape[-1])) * np.ones(U.shape[:-1]))
    with pytest.raises(RuntimeError, match="eigenvalue pairs"):
        verify_wigner_identity(problem)


@pytest.mark.parametrize("tol, dim", [(1e-10, 2), (1e-3, 4)])
def test_verify_tol_reaches_the_intersection(tol, dim):
    # diag(1, e^{i 5e-7}): its eigenvalues are distinct at tol 1e-10 and one
    # at tol 1e-3, and the commutant the intersection comes from cuts at the
    # same tol, or the two counts would disagree and raise
    problem = WignerProblem(u1_rep([0, 1]), (U1Element(5e-7),))
    report = verify_wigner_identity(problem, tol)
    assert report.element_dims == (dim,)
    assert report.intersection_dim == report.averaged_dim == dim
    assert report.verdict


def test_intersection_algorithms_agree(rng):
    subs = []
    for _ in range(3):
        m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(m)
        subs.append(Subspace(6, q))
    a = intersect_stacked(subs)
    b = intersect_alternating(subs)
    assert a.dim == b.dim


@pytest.mark.parametrize("seed, index, dim", [(1403, 37, 2), (1407, 33, 5)])
def test_alternating_projection_stops_within_rounding_of_idempotent(seed, index, dim):
    # eigenvalues 1 + O(eps) double their excess with each squaring: these two
    # iterates never get idempotent to 1e-12, and squared on they collapsed to
    # rank 1 (seed 1403) or overflowed (seed 1407)
    problem = standard_problem_batch(200, seed)[index]
    subs = [wigner_subspace(problem.rep, g) for g in problem.elements]
    assert intersect_alternating(subs).dim == intersect_stacked(subs).dim == dim


@pytest.mark.parametrize("seed", [1403, 1407, 1607, 1611])
def test_verify_every_problem_of_a_batch(seed):
    assert all(verify_wigner_identity(p).verdict for p in standard_problem_batch(200, seed))


def _rewritten_families(problem):
    """Families with the same Wigner set intersection: reversed, the first
    element repeated, the identity appended, the first element's inverse
    appended (W_e = M_d and W_{g^-1} = W_g)."""
    elements, group = [*problem.elements], problem.rep.group
    return [elements[::-1], elements + elements[:1], elements + [*identity(group)],
            elements + [*inverse(group, elements[:1])]]


@pytest.mark.parametrize("seed", [1403, 1607])
def test_verify_is_invariant_under_family_rewrites(seed):
    # each rewrite keeps the intersection, hence by the identity the averaged
    # map's fixed set, so dims and verdict; the appended inverse has the
    # first element's Wigner set dim
    for problem in standard_problem_batch(40, seed):
        report = verify_wigner_identity(problem)
        expected = (report.intersection_dim, report.averaged_dim, report.verdict)
        for elements in _rewritten_families(problem):
            variant = verify_wigner_identity(WignerProblem(problem.rep, elements))
            assert (variant.intersection_dim, variant.averaged_dim, variant.verdict) == expected
        assert variant.element_dims[-1] == report.element_dims[0]


# SHA-256 of the JSON list of [element_dims, intersection_dim, averaged_dim,
# verdict] of every problem of standard_problem_batch(200, s), s = 0..4
_BATCH_DECISIONS_SHA256 = "65a75629c87ceb280207a94f18fc6bf2d1b1fb6739ea83ba3a95d7c4e86fe23b"


def test_verify_decisions_of_five_batches_are_pinned():
    rows = [[list(r.element_dims), r.intersection_dim, r.averaged_dim, r.verdict]
            for s in range(5) for r in map(verify_wigner_identity, standard_problem_batch(200, s))]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _BATCH_DECISIONS_SHA256


def _reference_superop(rep, g):
    U = element_unitary(rep, g)
    return np.kron(U.T, U.conj().T)


def _reference_averaged_superop(problem):
    # builds its own per-element np.kron superoperators
    ops = [_reference_superop(problem.rep, g) for g in problem.elements]
    return sum(ops) / len(ops)


_KINDS = {FiniteElement: "finite", U1Element: "u1", SU2Element: "su2", SU3Element: "su3"}


def _element_params(g):
    """One element's report parameters, field by field."""
    fields = vars(g) if type(g) is not SU3Element else {"matrix": matrix_to_json(g.matrix)}
    return {"kind": _KINDS[type(g)], **fields}


def _reference_report(problem, tol=1e-10):
    """verify_wigner_identity with one np.kron superoperator and one
    null_space per element, as it was before the superoperators were built
    as one stack (the alternating projection only guards the dimension)."""
    subs = []
    for g in problem.elements:
        T = _reference_superop(problem.rep, g)
        subs.append(null_space(T - np.eye(T.shape[0]), tol))
    inter = intersect_stacked(subs, tol)
    S = _reference_averaged_superop(problem)
    avg = null_space(S - np.eye(S.shape[0]), tol)
    inclusion = 0.0
    for k in range(inter.dim):
        v = inter.basis[:, k]
        inclusion = max(inclusion, float(np.linalg.norm(S @ v - v)))
    angle, sigma_min = principal_angle_residual(inter, avg)
    verdict = (
        inter.dim == avg.dim and angle <= 1e-8 and (inter.dim == 0 or sigma_min >= 1.0 - 1e-8)
    )
    return WignerReport(
        rep_name=problem.rep.name,
        d=problem.d,
        element_params=tuple(map(_element_params, problem.elements)),
        element_dims=tuple(s.dim for s in subs),
        intersection_dim=inter.dim,
        averaged_dim=avg.dim,
        max_principal_angle=angle,
        min_gram_singular_value=sigma_min,
        inclusion_residual=inclusion,
        verdict=bool(verdict),
    )


def _reference_families():
    # su2-fund represents the identity exactly, so T - I is the zero matrix
    su2, su2_8 = su2_fundamental(), su2_irrep(8)
    [e] = identity(su2.group)
    q8, u1 = quaternion_rep(5), u1_rep([0, 0, 1, -1, 2])
    return [
        WignerProblem(su2, (e, e)),
        WignerProblem(su2, (e, *haar_sample(su2, 3, 2))),
        WignerProblem(q8, tuple(haar_sample(q8, 5, 3))),
        WignerProblem(u1, tuple(haar_sample(u1, 6, 2))),
        WignerProblem(su2_8, tuple(haar_sample(su2_8, 8, 3))),
    ]


_REPORT_FLOATS = ("max_principal_angle", "min_gram_singular_value", "inclusion_residual")


def test_verify_matches_the_per_element_superoperator_reference(monkeypatch):
    # verify against one superoperator null space per element: the same dims
    # and verdict exactly, every report float to 1e-12 (verify takes the
    # intersection from the commutant, not from an SVD); Cesaro against
    # np.kron superoperators bitwise
    problems = [(p, 1001 + i) for i, p in enumerate(standard_problem_batch(200, 1001))]
    problems += [(p, 2026 + i) for i, p in enumerate(standard_problem_batch(200, 2026))]
    problems += [(p, 7 + i) for i, p in enumerate(_reference_families())]
    identities = 0
    for problem, seed in problems:
        report = verify_wigner_identity(problem).to_json()
        reference = _reference_report(problem).to_json()
        for key, value in reference.items():
            if key in _REPORT_FLOATS:
                assert abs(report[key] - value) <= 1e-12, (key, report, reference)
            else:
                assert report[key] == value, (key, report, reference)
        # the identity element's T - I is zero: its Wigner set is all of M_d
        [e] = identity(problem.rep.group)
        for g, dim in zip(problem.elements, report["element_dims"]):
            if g == e:
                identities += 1
                assert dim == problem.d**2
        rho0 = problem_seed_state(problem, seed)
        with monkeypatch.context() as m:
            m.setattr(states, "averaged_superop", _reference_averaged_superop)
            # a problem of its own: verify's S is kept for this problem's Cesaro
            fresh = WignerProblem(problem.rep, problem.elements)
            expected = cesaro_fixed_point(fresh, rho0).rho.tobytes()
        assert cesaro_fixed_point(problem, rho0).rho.tobytes() == expected
    assert identities >= 3


@pytest.mark.parametrize("seed", [1001, 2026, 1607, 1611])
def test_verify_bases_of_the_standard_batch_are_orthonormal(seed, unchecked_bases):
    # the commutant, the averaged side and null_space enter Subspace unchecked
    for problem in standard_problem_batch(200, seed):
        verify_wigner_identity(problem)
        S = averaged_superop(problem)
        null_space(S - np.eye(len(S)))
    assert len(unchecked_bases) == 3 * 200
    assert_orthonormal(unchecked_bases)


@pytest.mark.parametrize("d", [8, 16, 24])
def test_verify_bases_of_su2_irreps_are_orthonormal(d, unchecked_bases):
    rep = su2_irrep(d)
    verify_wigner_identity(WignerProblem(rep, haar_sample(rep, d, 3)))
    assert len(unchecked_bases) == 2
    assert_orthonormal(unchecked_bases)


def test_verify_then_cesaro_build_one_superoperator(monkeypatch):
    built = []
    monkeypatch.setattr(states, "averaged_superop",
                        lambda problem: built.append(problem) or averaged_superop(problem))
    problems = standard_problem_batch(20, 1607)
    for i, problem in enumerate(problems):
        verify_wigner_identity(problem)
        cesaro_fixed_point(problem, problem_seed_state(problem, 1607 + i))
    assert built == problems


def test_interleaved_problems_each_get_their_own_superoperator(monkeypatch):
    # A, B, A: each S is byte-equal to averaged_superop, and a miss drops the
    # kept S before it builds, so no more than one S is alive
    a, b = standard_problem_batch(8, 2026)[6:]
    kept = []

    def build(problem):
        assert states._LAST_S == [None]
        kept.append(weakref.ref(S := averaged_superop(problem)))
        return S

    monkeypatch.setattr(states, "averaged_superop", build)
    for problem in (a, b, a):
        S = states._shared_superop(problem)
        assert S.tobytes() == averaged_superop(problem).tobytes() and not S.flags.writeable
        assert states._shared_superop(problem) is S
        assert len(states._LAST_S) == 1 and states._LAST_S[0][0] is problem.unitaries
        del S
        assert sum(ref() is not None for ref in kept) == 1
    assert len(kept) == 3
    rhos = [problem_seed_state(p, 5) for p in (a, b)]
    verify_wigner_identity(a)
    verify_wigner_identity(b)
    for problem, rho0 in zip((a, b), rhos):
        assert (cesaro_fixed_point(problem, rho0).rho.tobytes()
                == reference_cesaro(problem, rho0).rho.tobytes())


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
    time, the windows and stopping rule of cesaro_fixed_point (the largest
    element invariance defect)."""
    S = averaged_superop(problem)
    side = problem.d
    unitaries = element_unitaries(problem.rep, problem.elements)

    def max_defect(v):
        rho = unvec(v, side)
        return max(trace_norm(U.conj().T @ rho @ U - rho) for U in unitaries)

    sigma = vec(rho0.rho)
    residual = max_defect(sigma)
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
        residual = max_defect(sigma)
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


@pytest.mark.parametrize("w", [1, 2, 3, 5, 840, 1000])
@pytest.mark.parametrize("rep", ["su2-3", "z4-3"])
def test_power_sum_is_bitwise_the_reference(rep, w):
    # Z_4's diagonal unitaries give an S with exact zeros
    rep = su2_irrep(3) if rep == "su2-3" else cyclic_rep(4, dim=3)
    S = averaged_superop(WignerProblem(rep, haar_sample(rep, 5, 3)))
    total, power = _power_sum(S, w)
    ref_total, ref_power = reference_power_sum(S, w)
    assert total.tobytes() == ref_total.tobytes()
    assert power.tobytes() == ref_power.tobytes()


@pytest.mark.parametrize("seed", [1, 1607, 2026])
def test_cesaro_is_bitwise_the_reference_on_the_standard_batch(seed):
    for i, problem in enumerate(standard_problem_batch(200, seed)):
        rho0 = problem_seed_state(problem, seed + i)
        out = cesaro_fixed_point(problem, rho0).rho.tobytes()
        assert out == reference_cesaro(problem, rho0).rho.tobytes(), f"problem {i}"


@pytest.mark.parametrize("seed, index", [(1607, 168), (1611, 164)])
def test_capped_cesaro_residual_is_bitwise_the_reference(seed, index):
    problem = standard_problem_batch(200, seed)[index]
    rho0 = problem_seed_state(problem, seed + index)
    with pytest.raises(NoConvergence) as err:
        cesaro_fixed_point(problem, rho0, max_iter=840)
    with pytest.raises(NoConvergence) as ref:
        reference_cesaro(problem, rho0, max_iter=840)
    assert err.value.residual == ref.value.residual


def test_cesaro_matches_step_loop_on_standard_batch():
    for i, problem in enumerate(standard_problem_batch(count=20, base_seed=41)):
        rho0 = problem_seed_state(problem, 41 + i)
        out = cesaro_fixed_point(problem, rho0)
        assert np.abs(out.rho - _cesaro_by_steps(problem, rho0).rho).max() <= 1e-12


@pytest.mark.parametrize("seed, index", [(1607, 168), (1611, 164)])
def test_cesaro_converges_when_t_has_eigenvalues_near_one(seed, index):
    # one element has eigenphases near +-pi, so T has eigenvalues with
    # |1 - lambda| ~ 7.5e-4 off its fixed space: the window means need more
    # than 10^5 map applications to reach tol
    problem = standard_problem_batch(200, seed)[index]
    rho0 = problem_seed_state(problem, seed + index)
    with pytest.raises(NoConvergence):
        cesaro_fixed_point(problem, rho0, max_iter=10**5)
    out = cesaro_fixed_point(problem, rho0)
    for g in problem.elements:
        assert trace_distance(pullback(problem.rep, g, out), out) <= 1e-9
    # the Cesaro limit is the Hilbert-Schmidt projection onto Fix(T), the
    # family's commutant
    fixed = commutant(list(element_unitaries(problem.rep, problem.elements)), problem.d)
    assert trace_norm(out.rho - unvec(fixed.project(vec(rho0.rho)))) <= 1e-7


def test_cesaro_stops_on_each_elements_defect():
    # the averaged map's residual 7.3e-11 <= tol hid element defects of 1.0e-9:
    # the mean of U_j^dag rho U_j - rho cancels part of each element's defect
    problem = standard_problem_batch(200, 1607)[69]
    assert (problem.rep.name, problem.d, len(problem.elements)) == ("su3-sym2", 6, 2)
    out = cesaro_fixed_point(problem, problem_seed_state(problem, 1676))
    for g in problem.elements:
        assert trace_distance(pullback(problem.rep, g, out), out) <= 1e-9


def test_cesaro_identity_map_returns_seed(rng):
    rep = su2_fundamental()
    rho0 = random_density(2, rng)
    out = cesaro_fixed_point(WignerProblem(rep, identity(rep.group)), rho0)
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


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_verify_and_cesaro_require_a_finite_positive_tol(tol):
    # d = 4, both sides of dim 8 at the default tol: a NaN tol passed every
    # rank guard, so verify reported intersection 16 = averaged 16 with
    # verdict True, and Cesaro returned its seed state unchanged
    problem = standard_problem_batch(count=3, base_seed=1)[2]
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_wigner_identity(problem, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        cesaro_fixed_point(problem, problem_seed_state(problem, 1), tol=tol)


def test_cesaro_takes_a_finite_tol_too_large_to_square():
    # (2 tol)**2 overflows for any tol above about 6.7e153; the stop test
    # must still decide, as verify does
    problem = standard_problem_batch(count=3, base_seed=1)[2]
    rho0 = problem_seed_state(problem, 1)
    assert verify_wigner_identity(problem, tol=1e200).verdict
    assert cesaro_fixed_point(problem, rho0, tol=1e200).rho.tobytes() == rho0.rho.tobytes()


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
    # largest element defect 3.0e-3 after the first window, 4.1e-5 after the cut one
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
    with pytest.raises(BadElement):
        WignerProblem(rep, (FiniteElement(0),))
    with pytest.raises(BadElement):
        WignerProblem(quaternion_rep(), (FiniteElement(8),))


def test_problem_builds_its_unitary_stack_once(monkeypatch):
    from wignerlab import groups

    calls, build = [], groups.element_unitaries
    monkeypatch.setattr(groups, "element_unitaries",
                        lambda rep, elements: calls.append(elements) or build(rep, elements))
    for seed, problem in enumerate(standard_problem_batch(8, 1001)):
        calls.clear()
        verify_wigner_identity(problem)
        cesaro_fixed_point(problem, problem_seed_state(problem, seed))
        assert len(calls) == 1
        assert problem.unitaries.tobytes() == build(problem.rep, problem.elements).tobytes()
        with pytest.raises(ValueError):
            problem.unitaries[0, 0, 0] = 0.0


@pytest.mark.parametrize("base_seed", [1, 1607, 2026])
def test_standard_problem_batch_families_are_bitwise_haar_samples(base_seed, monkeypatch):
    # problem i's family is haar_sample(rep, base_seed + i, 1 + i % 4), drawn
    # in one stack per special unitary group, not one per problem (each rep
    # build draws its own check's samples, from seed 0x5EED)
    from wignerlab import groups

    stacks = []
    kernel = groups._haar_special_unitaries

    def counted(n, families):
        if families[0][0] != 0x5EED:
            stacks.append(sum(count for _, count in families))
        return kernel(n, families)

    monkeypatch.setattr(groups, "_haar_special_unitaries", counted)
    problems = standard_problem_batch(200, base_seed)
    monkeypatch.setattr(groups, "_haar_special_unitaries", kernel)
    assert len(stacks) == 2 and sum(stacks) == sum(
        len(p.elements) for p in problems if p.rep.group.kind in ("su2", "su3"))
    for i, problem in enumerate(problems):
        expected = haar_sample(problem.rep, base_seed + i, 1 + i % 4)
        assert type(problem.elements) is type(expected)
        assert problem.elements.array.tobytes() == expected.array.tobytes()
