import numpy as np
import pytest

from wignerlab import (
    CrossedProductModel,
    DimensionMismatch,
    NotHermitian,
    Subspace,
    algebra_blocks,
    commutant,
    cyclic_group,
    cyclic_rep,
    eig_hermitian,
    kron,
    null_space,
    quaternion_rep,
    standard_problem_batch,
    trivial_rep,
)
from wignerlab.crossed import algebra_closure, spanning_generators
from wignerlab.groups import haar_unitary, philox_stream
from wignerlab.matrixcore import (
    _GENERIC_SEED,
    _nonnormal,
    _unit_norm,
    matrix_from_json,
    matrix_to_json,
    pairwise_mean,
    principal_angle_residual,
    trace_norm,
    unvec,
    vec,
)

from conftest import PAULI_X, double_commutant, double_normalised_nonnormal, random_hermitian


def test_eig_diagonal():
    vals, vecs = eig_hermitian(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.allclose(vals, [1, 2, 3])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(3))


def test_eig_pauli_x():
    vals, _ = eig_hermitian(PAULI_X)
    assert np.allclose(vals, [-1, 1])


def test_eig_matches_quadratic_formula(rng):
    # 2x2 oracle: eigenvalues are mean(diag) +- sqrt(mean^2 - det)
    for _ in range(20):
        M = random_hermitian(2, rng)
        a = np.trace(M).real / 2
        det = np.linalg.det(M).real
        expected = np.sort([a - np.sqrt(a * a - det), a + np.sqrt(a * a - det)])
        vals, _ = eig_hermitian(M)
        assert np.abs(vals - expected).max() < 1e-10


def test_eig_reconstruction_residual(rng):
    for d in (2, 3, 5, 8):
        M = random_hermitian(d, rng)
        vals, vecs = eig_hermitian(M)
        resid = np.linalg.norm(M - (vecs * vals) @ vecs.conj().T)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(M))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_kron_identity_and_dims():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    assert kron(np.ones((2, 2)), np.ones((3, 3))).shape == (6, 6)


def test_kron_index_convention():
    # first factor's index varies slowest: (X kron X)(e0 kron e0) = e1 kron e1
    e00 = np.zeros(4)
    e00[0] = 1
    out = kron(PAULI_X, PAULI_X) @ e00
    expected = np.zeros(4)
    expected[3] = 1  # e1 kron e1 sits at index 1*2 + 1
    assert np.array_equal(out, expected)


def test_kron_associativity_exact(rng):
    # index-level identity: exact whenever the scalar products do not round
    A = rng.integers(-3, 4, (2, 2)) + 1j * rng.integers(-3, 4, (2, 2))
    B = rng.integers(-3, 4, (3, 3)) + 1j * rng.integers(-3, 4, (3, 3))
    C = rng.integers(-3, 4, (2, 2)) + 1j * rng.integers(-3, 4, (2, 2))
    assert np.linalg.norm(kron(kron(A, B), C) - kron(A, kron(B, C))) == 0.0
    F = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs, rhs = kron(kron(F, G), H), kron(F, kron(G, H))
    assert np.linalg.norm(lhs - rhs) <= 1e-14 * np.linalg.norm(lhs)


def test_vec_column_stacking_identity(rng):
    # convention pin: vec(A M B) = (B.T kron A) vec(M)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = vec(A @ M @ B)
    rhs = kron(B.T, A) @ vec(M)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.array_equal(unvec(vec(M)), M)


def test_null_space_zero_and_identity():
    assert null_space(np.zeros((4, 4))).dim == 4
    assert null_space(np.eye(4)).dim == 0


def test_null_space_commutant_of_pauli_x():
    # fixed points of M -> X M X are span{I, X}
    S = kron(PAULI_X.conj(), PAULI_X) - np.eye(4)
    sub = null_space(S)
    assert sub.dim == 2
    assert sub.residual(vec(np.eye(2))) < 1e-10
    assert sub.residual(vec(PAULI_X)) < 1e-10


def test_null_space_requires_positive_tol():
    # a NaN cut failed every comparison: diag(1, 2, 0) had a 3-dim null space
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            null_space(np.diag([1.0, 2.0, 0.0]), tol=tol)


def test_commutant_requires_positive_tol():
    # a cut at or below zero is no rank decision: -1 claimed "not normal"
    # for the identity, 0 kept what commutes exactly, NaN gave all of M_4
    U = haar_unitary(4, philox_stream(3))
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            commutant([np.eye(2)], 2, tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            commutant([U], 4, tol)


def _reference_null_basis(M, tol=1e-10):
    """One SVD of one matrix and the rank rule."""
    if not M.any():
        return np.eye(M.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(M)
    return vh[int(np.sum(s > tol * s[0])):].conj().T


def test_null_space_is_bitwise_one_svd_and_the_rank_rule(rng):
    # full rank, rank deficient, the zero matrix, and 2I - 2I
    a = rng.standard_normal((5, 9, 9)) + 1j * rng.standard_normal((5, 9, 9))
    a[1] = a[1] @ np.diag([1.0] * 6 + [0.0] * 3) @ a[2]
    a[3] = 0.0
    a[4] = 2 * np.eye(9) - 2 * np.eye(9)
    got = [null_space(M) for M in a]
    assert [s.dim for s in got] == [0, 3, 0, 9, 9]
    for M, sub in zip(a, got):
        assert sub.basis.tobytes() == _reference_null_basis(M).tobytes()
    # tall and wide matrices
    for shape in ((12, 5), (4, 7)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert null_space(M).basis.tobytes() == _reference_null_basis(M).tobytes()


def test_null_space_rejects_bad_input():
    M = np.eye(3, dtype=complex)
    M[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        null_space(M)
    M[1, 2] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        null_space(M)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            null_space(np.eye(2), tol=tol)
    for bad in (np.eye(2)[None], np.ones(3)):
        with pytest.raises(ValueError, match="2-d array"):
            null_space(bad)


# each call cuts a singular value of about x at a rank cutoff of 1e-10 to 2e-10:
# (call, dim when x = 5e-11 is cut off, dim when x = 5e-7 is kept)
_RANK_CUTS = {
    "null_space": (lambda x: null_space(np.diag([1.0, x])).dim, 1, 0),
    "commutant": (lambda x: commutant([np.diag([1.0, 1.0 + x])], 2).dim, 4, 2),
    "algebra_closure": (lambda x: algebra_closure([np.diag([1.0, 1.0 + x])], 2).dim, 1, 2),
}


@pytest.mark.parametrize("name", sorted(_RANK_CUTS))
def test_rank_cuts_decide_outside_the_margin_and_refuse_inside(name):
    call, cut_off, kept = _RANK_CUTS[name]
    assert call(5e-11) == cut_off
    assert call(5e-7) == kept
    with pytest.raises(RuntimeError, match="rank cutoff"):
        call(5e-9)


def test_null_space_of_no_rows_is_everything():
    sub = null_space(np.zeros((0, 3)))
    assert sub.dim == 3
    assert np.array_equal(sub.basis, np.eye(3))


def test_null_space_orthonormality(rng):
    M = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    sub = null_space(M)
    gram = sub.basis.conj().T @ sub.basis
    assert np.abs(gram - np.eye(sub.dim)).max() <= 1e-10


def test_commutant_examples():
    assert commutant([np.eye(2)], 2).dim == 4
    units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        units[k][i, j] = 1
    assert commutant(units, 2).dim == 1
    sub = commutant([np.diag([1.0, -1.0]).astype(complex)], 2)
    assert sub.dim == 2
    assert sub.residual(vec(np.diag([2.0, 5.0]).astype(complex))) < 1e-10


def superop_commutant(S, d: int, tol: float = 1e-10) -> Subspace:
    """Reference commutant: for each A in turn, the null space of the
    d^2 x d^2 commutator superoperator vec(AM - MA) = (I kron A - A.T kron I)
    vec(M) on the running basis, cut at tol * ||A||_F."""
    N = np.eye(d * d, dtype=complex)
    for A in S:
        if N.shape[1] == 0:
            break
        A = np.asarray(A, dtype=complex)
        L = (np.kron(np.eye(d), A) - np.kron(A.T, np.eye(d))) @ N
        _, s, vh = np.linalg.svd(L, full_matrices=False)
        N = N @ vh[int(np.sum(s > tol * np.linalg.norm(A))):].conj().T
    return Subspace(d * d, N)


CROSSED_MODELS = {
    "z2-trivial-m2": lambda: CrossedProductModel(trivial_rep(cyclic_group(2), 2)),
    "z2-inner-m2": lambda: CrossedProductModel(cyclic_rep(2, dim=2)),
    "q8-m2": lambda: CrossedProductModel(quaternion_rep()),
}


def _crossed_case(name: str, first_commutant: bool):
    # the first commutant's basis: non-normal matrices with a *-closed span
    model = CROSSED_MODELS[name]()
    S, d = spanning_generators(model), model.ambient_dim
    return (superop_commutant(S, d).matrices() if first_commutant else S), d


ORACLE_CASES = {
    "identity": lambda rng: ([np.eye(2)], 2),
    "matrix-units": lambda rng: (list(np.eye(4, dtype=complex).reshape(4, 2, 2)), 2),
    "diag(1,-1)": lambda rng: ([np.diag([1.0, -1.0])], 2),
    "two-random-hermitian": lambda rng: ([random_hermitian(4, rng), random_hermitian(4, rng)], 4),
    "repeated-eigenvalue": lambda rng: ([np.diag([1.0, 1.0, 2.0])], 3),
    "near-degenerate-pair": lambda rng: ([np.diag([0.0, 1e-12, 1.0])], 3),
}
for _name in CROSSED_MODELS:
    ORACLE_CASES[f"{_name}-generators"] = lambda rng, n=_name: _crossed_case(n, False)
    ORACLE_CASES[f"{_name}-first-commutant"] = lambda rng, n=_name: _crossed_case(n, True)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_commutant_matches_superoperator_oracle(case, rng):
    S, d = ORACLE_CASES[case](rng)
    new, ref = commutant(S, d), superop_commutant(S, d)
    assert new.dim == ref.dim
    assert principal_angle_residual(new, ref)[0] <= 1e-9


def test_commutant_keeps_elements_across_a_small_eigenvalue_gap():
    # P = diag(1, 1, 1, -1, -1, -1) and A = diag(s, s + t) have a 6-dim
    # commutant.  t is chosen so that the kernel's generic element
    # X = 2 a_0 P / ||P|| + 2 a_1 A / ||A|| has its eigenvalues in pairs 1e-8
    # apart, one from each block.  eigh mixes such a pair by about eps / 1e-8,
    # far above tol, so a cut between the two would lose commutant elements.
    a = np.random.Generator(np.random.Philox(key=_GENERIC_SEED)).standard_normal((2, 2))[0]
    s, n = np.arange(3.0), 3
    r = (1e-8 + 4 * a[0] / np.sqrt(2 * n)) / (2 * a[1])
    t = 0.0
    for _ in range(200):  # a contraction: |r| sqrt(n) < 1
        t = r * np.linalg.norm(np.concatenate([s, s + t]))
    W = haar_unitary(2 * n, philox_stream(3))
    diagonals = ([1.0] * n + [-1.0] * n, np.concatenate([s, s + t]))
    S = [W @ np.diag(v) @ W.conj().T for v in diagonals]
    assert commutant(S, 2 * n).dim == superop_commutant(S, 2 * n).dim == 2 * n


@pytest.mark.parametrize("d", [1, 3])
def test_commutant_of_the_empty_family_is_everything(d):
    for S in ([], np.zeros((0, d, d))):
        sub = commutant(S, d)
        assert sub.dim == d * d
        assert np.abs(sub.projector() - np.eye(d * d)).max() <= 1e-12
    for S in (np.zeros((0, d + 1, d + 1)), np.zeros((2, d, d + 1)), [np.eye(d + 1)]):
        with pytest.raises(DimensionMismatch):
            commutant(S, d)


def test_commutant_rejects_set_without_adjoints():
    # N's commutant has dim 2 (I and N); that of its *-algebra, M_2, has dim 1
    N = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        commutant([N], 2)
    assert commutant([N, N.conj().T], 2).dim == 1


def test_commutant_refuses_a_matrix_normal_only_to_tolerance():
    # ||[A, A^dag]||_F / ||A||_F^2 = 7e-13 passes the normality test, so A's
    # adjoint is not asked for, and A's commutant span{I, E12} is not *-closed
    A = np.eye(2, dtype=complex)
    A[0, 1] = 1e-6
    assert not _nonnormal(A[None], 1e-10)[0]
    with pytest.raises(ValueError, match="closed under adjoints"):
        commutant([A], 2)
    assert commutant([A, A.conj().T], 2).dim == 1


def test_the_normality_test_is_scale_free_and_passes_rounding(rng):
    H = random_hermitian(4, rng)
    H[0, 1] += 1e-16 * abs(H[0, 1])
    E12 = np.zeros((4, 4), dtype=complex)
    E12[0, 1] = 1.0
    mats = np.array([H, 1e8 * haar_unitary(4, rng), np.zeros((4, 4)), 1e-8 * E12, E12 + E12.T])
    assert _nonnormal(_unit_norm(mats), 1e-10).tolist() == [False, False, False, True, False]


@pytest.mark.parametrize("seed", [1, 1607])
def test_the_normality_test_on_unit_norm_input_decides_as_before(seed):
    # commutant's inputs in the identity batch: each problem's unitaries
    for problem in standard_problem_batch(200, base_seed=seed):
        mats = np.array(problem.unitaries)
        expected = double_normalised_nonnormal(mats, 1e-10)
        assert _nonnormal(_unit_norm(mats), 1e-10).tolist() == expected.tolist()
    # normal only to tolerance: passes the test either way, and commutant refuses it
    A = np.eye(2, dtype=complex)
    A[0, 1] = 1e-6
    assert not double_normalised_nonnormal(A[None], 1e-10)[0]
    assert not _nonnormal(_unit_norm(A[None].copy()), 1e-10)[0]
    with pytest.raises(ValueError, match="closed under adjoints"):
        commutant([A], 2)


def test_double_commutant_contains_generators(rng):
    mats = [random_hermitian(3, rng), random_hermitian(3, rng)]
    dc = double_commutant(mats, 3)
    for M in mats + [np.eye(3, dtype=complex)]:
        assert dc.residual(vec(M)) <= 1e-9


def _rep_commutant(rep, samples):
    """The commutant of a rep's image, from ``samples`` Haar elements."""
    from wignerlab import element_unitaries, haar_sample

    return commutant(element_unitaries(rep, haar_sample(rep, 5, samples)), rep.dim)


def test_algebra_blocks_of_an_su2_rep_commutant():
    from wignerlab import su2_irrep
    from wignerlab.groups import direct_sum_rep

    rep = direct_sum_rep(su2_irrep(2), su2_irrep(2), su2_irrep(3))
    # two copies of spin 1/2 and one of spin 1: M_2 tensor I_2 plus M_1 tensor I_3
    assert algebra_blocks(_rep_commutant(rep, 2)) == ((2, 2), (1, 3))


def test_algebra_blocks_of_a_u1_rep_commutant():
    from wignerlab import u1_rep

    pairs = algebra_blocks(_rep_commutant(u1_rep([0, 0, 1, -1, 2, 2, 2]), 1))
    # each weight's multiplicity, on a one-dimensional irrep
    assert pairs == ((3, 1), (2, 1), (1, 1), (1, 1))


def test_algebra_blocks_of_the_full_and_the_scalar_algebras():
    d = 4
    assert algebra_blocks(Subspace(d * d, np.eye(d * d))) == ((d, 1),)
    assert algebra_blocks(Subspace(d * d, vec(np.eye(d)) / np.sqrt(d))) == ((1, d),)


def _blocks_of(monkeypatch, mats, coefficients):
    """``algebra_blocks`` of the span of orthonormal matrices, its generic
    element replaced by one with the given coefficients."""
    from wignerlab import matrixcore

    row = np.array([coefficients], dtype=complex)
    monkeypatch.setattr(matrixcore, "_generic_coefficients", lambda n: row)
    d = len(mats[0])
    return algebra_blocks(Subspace(d * d, np.column_stack([vec(M) for M in mats])))


def test_algebra_blocks_raise_on_unequal_dims_in_one_block(monkeypatch):
    # diag(1, 1, 0) and diag(0, 0, 1) split C^3 into dims 2 and 1, and E links them
    E = np.zeros((3, 3))
    E[0, 2] = E[2, 0] = 1 / np.sqrt(2)
    mats = [np.diag([1, 1, 0]) / np.sqrt(2), np.diag([0, 0, 1.0]), E]
    with pytest.raises(RuntimeError, match="unequal dims"):
        _blocks_of(monkeypatch, mats, [1, 2, 0])


@pytest.mark.parametrize("link, match", [
    (1e-4, "block link"),  # within 100x of the link cut 1e-5
    (1e-7, "do not partition"),  # below the cut one way, linked the other way
    (0.7, "do not account"),  # one block of two clusters, but the span is no algebra
])
def test_algebra_blocks_refuse_what_is_not_an_algebra(monkeypatch, link, match):
    # e_1 and e_2 linked by N with N[0, 1] = link, N[1, 0] of the rest of its unit norm
    N = np.array([[0, link], [np.sqrt(1 - link**2), 0]])
    with pytest.raises(RuntimeError, match=match):
        _blocks_of(monkeypatch, [np.diag([1, 0.0]), np.diag([0, 1.0]), N], [1, 2, 0])


def _unit(d, a, b):
    E = np.zeros((d, d))
    E[a, b] = 1.0
    return E


@pytest.mark.parametrize("links", [
    # 0-1 and 1-2 linked, 0-2 not: cluster 1's row overlaps both others
    [(0, 1), (1, 0), (1, 2), (2, 1)],
    # {0, 1} and {2, 3}, and 3 linked to 1 one way: the first clusters' rows
    # alone would still partition, but 3's row is not its first cluster's
    [(0, 1), (1, 0), (2, 3), (3, 2), (3, 1)],
])
def test_algebra_blocks_raise_on_links_that_overlap(monkeypatch, links):
    d = max(max(pair) for pair in links) + 1
    mats = [_unit(d, a, a) for a in range(d)] + [_unit(d, a, b) for a, b in links]
    with pytest.raises(RuntimeError, match="do not partition"):
        _blocks_of(monkeypatch, mats, list(range(1, d + 1)) + [0] * len(links))


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="^subspace basis is not orthonormal to 1e-10$"):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_subspace_rejects_nonfinite_basis():
    # a NaN makes every comparison False, so a "> 1e-10" check alone lets it through
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^subspace basis contains NaN or Inf entries$"):
            Subspace(2, np.array([[bad], [0.0]], dtype=complex))


def test_matrix_validation_rejects_nonfinite_and_rectangular():
    from wignerlab.matrixcore import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))


def test_trace_norm_rejects_nonfinite():
    # numpy's SVD raises LinAlgError on a NaN but silently returns NaNs for an Inf
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            trace_norm(np.array([[bad, 0], [0, 1]], dtype=complex))


def test_principal_angle_residual_cases():
    a = Subspace(3, np.array([[1.0], [0.0], [0.0]], dtype=complex))
    b = Subspace(3, np.array([[0.0], [1.0], [0.0]], dtype=complex))
    angle, sigma = principal_angle_residual(a, a)
    assert angle < 1e-12 and sigma > 1 - 1e-12
    angle, sigma = principal_angle_residual(a, b)
    assert abs(angle - np.pi / 2) < 1e-12 and sigma < 1e-12


def test_pairwise_mean_matches_plain_mean(rng):
    stack = rng.standard_normal((7, 3, 3))
    assert np.abs(pairwise_mean(stack) - stack.mean(axis=0)).max() < 1e-14


def test_pairwise_mean_leaves_its_input_and_matches_a_copy_first_tree(rng):
    def copy_first(stack):
        acc = stack.copy()
        while acc.shape[0] > 1:
            half = acc.shape[0] // 2
            head = acc[: 2 * half : 2] + acc[1 : 2 * half : 2]
            acc = np.concatenate([head, acc[2 * half :]], axis=0) if acc.shape[0] % 2 else head
        return acc[0] / stack.shape[0]

    for n in (1, 2, 7, 64, 257):
        stack = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
        before = stack.copy()
        out = pairwise_mean(stack)
        assert stack.tobytes() == before.tobytes()
        assert out.tobytes() == copy_first(before).tobytes()
        assert not np.shares_memory(out, stack)


def test_matrix_json_roundtrip(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(M))
    assert np.array_equal(back, M)
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3]])


def test_matrix_json_rejects_booleans():
    # complex(True, False) is 1+0j: a boolean entry must not pass as a number
    for data in ([[[True, False]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, True]]]):
        with pytest.raises(ValueError, match="true and false are not numbers"):
            matrix_from_json(data)
