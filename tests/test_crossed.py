import numpy as np
import pytest

from wignerlab import (
    CrossedProductModel,
    ResourceCapExceeded,
    algebra_closure,
    covariance_check,
    crossed_dimension,
    cyclic_group,
    cyclic_rep,
    embed,
    finite_rep,
    generating_set,
    kron,
    quaternion_rep,
    regular_unitary,
    tensor_iso_check,
    trivial_rep,
)
from wignerlab import crossed
from wignerlab.cli import main
from wignerlab.crossed import spanning_generators
from wignerlab.groups import (
    FiniteGroup,
    act,
    element_unitary,
    finite_elements,
    haar_unitary,
    philox_stream,
    product_rep,
    quaternion_group,
)
from wignerlab.matrixcore import (DEFAULT_TOL, Subspace, _nonnormal, _rank, _unit_norm,
                                  algebra_blocks, commutant, principal_angle_residual, vec)

from conftest import assert_orthonormal, double_commutant, double_normalised_nonnormal


def z2_trivial_m2():
    return CrossedProductModel(trivial_rep(cyclic_group(2), 2))


def z2_inner_m2():
    # action by conjugation with diag(1, -1)
    return CrossedProductModel(cyclic_rep(2, dim=2))


def q8_m2():
    return CrossedProductModel(quaternion_rep())


def test_regular_unitary_identity_and_swap():
    model = z2_trivial_m2()
    e, a = finite_elements(model.group)
    assert np.array_equal(regular_unitary(model, e), np.eye(4))
    swap = np.array([[0, 1], [1, 0]], dtype=float)
    assert np.array_equal(regular_unitary(model, a), kron(np.eye(2), swap))


def test_regular_unitaries_form_representation():
    model = q8_m2()
    els = finite_elements(model.group)
    mats = {g.index: regular_unitary(model, g) for g in els}
    for g in els:
        for h in els:
            gh = model.group.table[g.index, h.index]
            assert np.abs(mats[g.index] @ mats[h.index] - mats[gh]).max() <= 1e-12


def _reference_embed(model, A):
    """Phi(A) one group element at a time: the sum of kron(alpha_g(A), E_gg)."""
    order = model.order
    out = np.zeros((model.ambient_dim, model.ambient_dim), dtype=complex)
    for g in finite_elements(model.group):
        E = np.zeros((order, order))
        E[g.index, g.index] = 1.0
        out += kron(act(model.rep, g, A), E)
    return out


def _reference_regular_unitary(model, h):
    """U_h one column of the permutation at a time."""
    group = model.group
    [hinv] = [k for k in range(group.order) if group.table[h.index, k] == group.identity]
    perm = np.zeros((group.order, group.order))
    for g in range(group.order):
        perm[group.table[g, hinv], g] = 1.0
    return kron(np.eye(model.d), perm)


def _benchmark_models():
    """The crossed-products benchmark's model shapes: Z_n on seeded weights
    and Q8's 2-dim irrep conjugated by a Haar unitary."""
    rng = philox_stream(13)
    models = [
        CrossedProductModel(cyclic_rep(n, weights=[int(w) for w in rng.integers(0, n, size=d)]))
        for n, d in [(2, 2), (4, 2), (3, 4), (5, 4), (12, 2)]
    ]
    v = haar_unitary(2, rng)
    base = quaternion_rep()
    mats = [v @ element_unitary(base, g) @ v.conj().T for g in finite_elements(base.group)]
    return models + [CrossedProductModel(finite_rep(base.group, mats, "q8-conj"))]


@pytest.mark.parametrize("model", _benchmark_models(), ids=lambda m: f"{m.rep.name}-d{m.d}")
def test_embed_and_regular_unitary_are_bitwise_the_loops(model):
    rng = philox_stream(17, model.ambient_dim)
    d = model.d
    fibre = [*np.eye(d * d, dtype=complex).reshape(-1, d, d),
             rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
    for A in fibre:
        assert embed(model, A).tobytes() == _reference_embed(model, A).tobytes()
    for h in finite_elements(model.group):
        assert regular_unitary(model, h).tobytes() == _reference_regular_unitary(model, h).tobytes()


@pytest.mark.parametrize("model", _benchmark_models(), ids=lambda m: f"{m.rep.name}-d{m.d}")
def test_covariance_check_is_bitwise_the_per_unit_loop(model):
    # the check as written per (h, matrix unit), each side through the public embed
    worst = 0.0
    for h in finite_elements(model.group):
        U = regular_unitary(model, h)
        for A in np.eye(model.d**2, dtype=complex).reshape(-1, model.d, model.d):
            lhs = U @ embed(model, A) @ U.conj().T
            rhs = embed(model, act(model.rep, h, A))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    assert repr(covariance_check(model)) == repr(worst)


def test_embed_unital_and_trivial_action(rng):
    model = z2_trivial_m2()
    assert np.allclose(embed(model, np.eye(2)), np.eye(4))
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(embed(model, A), kron(A, np.eye(2)))


def test_embed_multiplicative_star_and_injective(rng):
    model = z2_inner_m2()
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(embed(model, A @ B) - embed(model, A) @ embed(model, B)).max() <= 1e-10
    assert np.abs(embed(model, A.conj().T) - embed(model, A).conj().T).max() <= 1e-12
    # isometric scaling pins injectivity: ||Phi(A)||_F = sqrt(|G|) ||A||_F
    assert np.linalg.norm(embed(model, A)) == pytest.approx(
        np.sqrt(model.order) * np.linalg.norm(A), rel=1e-12
    )


def test_covariance_residuals():
    assert covariance_check(z2_trivial_m2()) == 0.0
    assert covariance_check(z2_inner_m2()) <= 1e-12
    assert covariance_check(q8_m2()) <= 1e-12


def test_crossed_dimension_examples():
    assert crossed_dimension(z2_trivial_m2()) == 8
    assert crossed_dimension(CrossedProductModel(trivial_rep(cyclic_group(2), 1))) == 2
    assert crossed_dimension(z2_inner_m2()) == 8


def test_crossed_dimension_q8_inner():
    # inner action: M2 x Q8 is M2 tensor the 8-dimensional group algebra
    assert crossed_dimension(q8_m2()) == 32


def test_closure_matches_double_commutant():
    model = z2_inner_m2()
    gens = spanning_generators(model)
    span = algebra_closure(gens, model.ambient_dim)
    dc = double_commutant(gens, model.ambient_dim)
    assert span.dim == dc.dim == 8


@pytest.mark.parametrize("model", _benchmark_models(), ids=lambda m: f"{m.rep.name}-d{m.d}")
def test_closure_spans_the_double_commutant(model):
    gens = spanning_generators(model)
    span = algebra_closure(gens, model.ambient_dim)
    angle, _ = principal_angle_residual(span, double_commutant(gens, model.ambient_dim))
    assert span.dim == model.d**2 * model.order and angle <= 1e-9


@pytest.mark.parametrize("model", _benchmark_models(), ids=lambda m: f"{m.rep.name}-d{m.d}")
def test_closure_and_commutant_bases_are_orthonormal(model, unchecked_bases):
    # neither basis is checked again when it enters its Subspace
    expected = model.d**2 * model.order
    assert algebra_closure(spanning_generators(model), model.ambient_dim).dim == expected
    assert crossed_dimension(model) == expected
    assert len(unchecked_bases) == 2
    assert_orthonormal(unchecked_bases)


def test_dimensions_need_no_product_closure(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("algebra_closure is a test reference, not a runtime path")

    monkeypatch.setattr(crossed, "algebra_closure", refuse)
    for model in _benchmark_models():
        assert crossed_dimension(model) == model.d**2 * model.order
    # the README's tensor-3 example: three copies of M_2 x Z_2, ambient 64
    report = tensor_iso_check([z2_trivial_m2()] * 3)
    assert report.ambient_dim == 64 and report.product_model_dim == 512 and report.equal
    argv = ["crossed", "--group", "zn:2", "--dim", "2", "--action", "trivial",
            "--tensor-factors", "3", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0


def test_closure_of_the_ambient_64_product_model_is_its_blocks():
    # the one ambient-64 model the product closure is checked on; about 2 s
    m = z2_trivial_m2()
    model = CrossedProductModel(product_rep(product_rep(m.rep, m.rep), m.rep))
    gens = spanning_generators(model)
    pairs = algebra_blocks(commutant(gens, model.ambient_dim))
    assert algebra_closure(gens, model.ambient_dim).dim == sum(n * n for _, n in pairs) == 512


def _spy_blocks(monkeypatch):
    """Record (columns in, columns out) of every ``_orthonormal_columns`` call."""
    calls, real = [], crossed._orthonormal_columns

    def spy(X, slack):
        out = real(X, slack)
        calls.append((X.shape[1], out.shape[1]))
        return out

    monkeypatch.setattr(crossed, "_orthonormal_columns", spy)
    return calls


def test_a_normal_generator_closes_without_its_adjoint(monkeypatch):
    model = CrossedProductModel(trivial_rep(cyclic_group(5), 1))
    U = regular_unitary(model, finite_elements(model.group)[1])
    calls = _spy_blocks(monkeypatch)
    span = algebra_closure([U], 5)
    # the seed is I and U alone; U^dag = U^4 comes from the products
    assert calls[0] == (2, 2)
    assert span.dim == 5 and span.residual(vec(U.conj().T)) <= 1e-12


def test_a_generator_hermitian_up_to_rounding_adds_no_letter(monkeypatch):
    rng = philox_stream(31)
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = Z + Z.conj().T
    H[0, 1] += 1e-16 * abs(H[0, 1])
    assert not np.array_equal(H, H.conj().T)
    calls = _spy_blocks(monkeypatch)
    span = algebra_closure([H], 4)
    # a generic Hermitian 4 x 4 generates the diagonal algebra of its eigenbasis
    assert calls[0] == (2, 2) and span.dim == 4
    assert span.residual(vec(H.conj().T)) <= 1e-12


@pytest.mark.parametrize("model", _benchmark_models(), ids=lambda m: f"{m.rep.name}-d{m.d}")
def test_the_normality_test_on_unit_norm_generators_decides_as_before(model):
    # the generators reach the test through commutant (scaled there) and
    # through algebra_closure (scaled there, once, as before)
    gens = np.array(spanning_generators(model))
    expected = double_normalised_nonnormal(gens, DEFAULT_TOL).tolist()
    assert _nonnormal(_unit_norm(gens.copy()), DEFAULT_TOL).tolist() == expected


def test_a_generator_normal_only_to_tolerance_is_refused():
    # ||[A, A^dag]||_F / ||A||_F^2 is below 1e-12, yet A^dag is 1e-6 away from span{I, A}
    A = np.eye(2, dtype=complex)
    A[0, 1] = 1e-6
    with pytest.raises(RuntimeError, match="adjoint lies"):
        algebra_closure([A], 2)


def test_no_block_holds_more_than_one_letters_products(monkeypatch):
    # Q8's three generating unitaries and two embedded Hermitian matrices:
    # five letters, all normal, so each round passes five blocks
    model = q8_m2()
    gens = spanning_generators(model)
    calls = _spy_blocks(monkeypatch)
    span = algebra_closure(gens, model.ambient_dim)
    assert len(gens) == 5 and span.dim == 32
    fresh, blocks = calls[0][1], calls[1:]
    assert fresh == 6 and len(blocks) % 5 == 0
    for start in range(0, len(blocks), 5):
        round_ = blocks[start:start + 5]
        assert all(cols_in <= fresh for cols_in, _ in round_)
        fresh = sum(cols_out for _, cols_out in round_)
    assert fresh == 0


def test_q8_blocks_are_its_irreps():
    model = q8_m2()
    pairs = algebra_blocks(commutant(spanning_generators(model), model.ambient_dim))
    # (d_pi, d d_pi) over Q8's irreps: one of dim 2 and four of dim 1
    assert pairs == ((2, 4), (1, 2), (1, 2), (1, 2), (1, 2))
    assert sum(n * n for _, n in pairs) == 32


@pytest.mark.parametrize("model", _benchmark_models(), ids=lambda m: f"{m.rep.name}-d{m.d}")
def test_blocks_give_the_closed_form_and_peter_weyl(model):
    gens = spanning_generators(model)
    pairs = algebra_blocks(commutant(gens, model.ambient_dim))
    assert sum(n * n for _, n in pairs) == model.d**2 * model.order
    assert sum(m * m for m, _ in pairs) == model.order
    assert sum(m * n for m, n in pairs) == model.ambient_dim


# pairs (m, n) for Q8 on C^2 (ambient 16) that break one of crossed_dimension's sums
_WRONG_PAIRS = {
    "sum n^2": ((2, 3), (2, 5)),  # sum m n = 16 and sum m^2 = 8, but sum n^2 = 34
    "ambient": ((1, 4), (1, 4)),  # sum n^2 = 32, but sum m n = 8
    "peter-weyl": ((3, 4), (1, 4)),  # sum n^2 = 32 and sum m n = 16, but sum m^2 = 10
}


@pytest.mark.parametrize("side", _WRONG_PAIRS)
def test_crossed_dimension_raises_when_a_side_disagrees(monkeypatch, side):
    model = q8_m2()
    monkeypatch.setattr(crossed, "algebra_blocks", lambda C: _WRONG_PAIRS[side])
    with pytest.raises(RuntimeError, match="closed form"):
        crossed_dimension(model)


def _with_spent_columns(X, count, rng, norm=0.99 * crossed._SPENT):
    """X with ``count`` columns of the given norm, in random directions, appended."""
    Z = rng.standard_normal((X.shape[0], count)) + 1j * rng.standard_normal((X.shape[0], count))
    return np.column_stack([X, norm * Z / np.linalg.norm(Z, axis=0)])


def test_spent_columns_leave_the_closure_rank_and_span():
    rng = philox_stream(27)
    # rank 5, as 9 columns in C^30
    X = (rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))) @ rng.standard_normal(
        (5, 9))
    want = crossed._orthonormal_columns(X, 0.0)
    assert want.shape[1] == 5
    kept, slack = crossed._kept_columns(_with_spent_columns(X, 200, rng))
    assert kept.tobytes() == X.tobytes() and 0 < slack <= np.sqrt(200) * crossed._SPENT
    got = crossed._orthonormal_columns(kept, slack)
    angle, _ = principal_angle_residual(Subspace(30, want), Subspace(30, got))
    assert got.shape[1] == 5 and angle <= 1e-12
    # the whole block, spent columns and all, has the same rank under the plain rule
    s = np.linalg.svd(_with_spent_columns(X, 200, rng), compute_uv=False)
    assert _rank(s, DEFAULT_TOL * max(1.0, s[0]), "full block") == 5


def test_a_value_within_the_spent_norm_below_the_cut_is_refused():
    rng = philox_stream(28)
    X = np.zeros((30, 2), dtype=complex)
    X[0, 0], X[1, 1] = 1.0, DEFAULT_TOL - 1e-12
    # 400 spent columns of norm 0.99e-13 have joint norm 1.98e-12
    kept, slack = crossed._kept_columns(_with_spent_columns(X, 400, rng))
    assert kept.shape[1] == 2 and slack == pytest.approx(1.98e-12)
    with pytest.raises(RuntimeError, match="rank cutoff"):
        crossed._orthonormal_columns(kept, slack)
    # with no column dropped, the same value lies below the cut and is decided,
    # and so is a value more than the slack below it
    assert crossed._orthonormal_columns(X, 0.0).shape[1] == 1
    X[1, 1] = DEFAULT_TOL - 3 * slack
    assert crossed._orthonormal_columns(X, slack).shape[1] == 1


def test_a_block_of_spent_columns_is_empty_without_an_svd(monkeypatch):
    spent = _with_spent_columns(np.zeros((16, 0)), 50, philox_stream(29))
    kept, slack = crossed._kept_columns(spent)
    assert kept.shape == (16, 0) and 0 < slack <= DEFAULT_TOL

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert crossed._orthonormal_columns(kept, slack).shape == (16, 0)
    # dropped columns of joint norm above the cut leave the rank undecided
    with pytest.raises(RuntimeError, match="dropped columns"):
        crossed._orthonormal_columns(kept, 2 * DEFAULT_TOL)


def test_algebra_span_star_closed_and_unital():
    model = q8_m2()
    span = algebra_closure(spanning_generators(model), model.ambient_dim)
    assert span.residual(vec(np.eye(model.ambient_dim))) <= 1e-9
    for M in span.matrices():
        assert span.residual(vec(M.conj().T)) <= 1e-9


def test_crossed_dimension_invariant_under_relabeling():
    base = cyclic_group(3)
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    table = np.zeros((3, 3), dtype=int)
    for i in range(3):
        for j in range(3):
            table[perm[i], perm[j]] = perm[base.table[i, j]]
    relabeled = FiniteGroup(("x", "y", "z"), table, int(perm[base.identity]))
    del inv
    a = CrossedProductModel(trivial_rep(base, 2))
    b = CrossedProductModel(trivial_rep(relabeled, 2))
    assert crossed_dimension(a) == crossed_dimension(b)


def test_tensor_iso_z2_pair_of_points():
    m = CrossedProductModel(trivial_rep(cyclic_group(2), 1))
    report = tensor_iso_check([m, m])
    assert report.equal
    assert report.product_of_dims == 4 and report.product_model_dim == 4


def test_tensor_iso_mixed_dims():
    m2 = z2_trivial_m2()
    m1 = CrossedProductModel(trivial_rep(cyclic_group(2), 1))
    report = tensor_iso_check([m2, m1])
    assert report.equal
    assert report.product_of_dims == 16 and report.product_model_dim == 16


def test_tensor_iso_three_factors():
    m = CrossedProductModel(trivial_rep(cyclic_group(2), 1))
    report = tensor_iso_check([m, m, m])
    assert report.equal
    assert report.product_of_dims == 8 and report.product_model_dim == 8
    # ambient 32: fibre M_4, group Z_2^3
    plane = z2_trivial_m2()
    report = tensor_iso_check([plane, plane, m])
    assert report.equal and report.ambient_dim == 32
    assert report.product_of_dims == 128 and report.product_model_dim == 128


def test_tensor_iso_resource_guard():
    m = q8_m2()
    with pytest.raises(ResourceCapExceeded):
        tensor_iso_check([m, m], ambient_cap=64)


def test_crossed_model_requires_finite_group():
    from wignerlab import su2_fundamental

    with pytest.raises(ValueError):
        CrossedProductModel(su2_fundamental())


def test_nontrivial_inner_action_blocks(rng):
    # embed really uses alpha_g: blocks differ when the action is nontrivial
    model = z2_inner_m2()
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    out = embed(model, A)
    z = np.diag([1.0, -1.0]).astype(complex)
    E0 = np.diag([1.0, 0.0])
    E1 = np.diag([0.0, 1.0])
    expected = kron(A, E0) + kron(z @ A @ z, E1)
    assert np.abs(out - expected).max() <= 1e-14


def _cyclic_models():
    rng = philox_stream(606)
    for n in range(2, 13):
        for d in range(1, 5):
            if n * d <= 24:
                weights = [int(w) for w in rng.integers(0, n, size=d)]
                yield CrossedProductModel(cyclic_rep(n, weights=weights))


def test_crossed_dimension_is_closed_form():
    rng = philox_stream(607)
    v = haar_unitary(2, rng)
    q8 = quaternion_rep()
    conj = [v @ q8.matrix_fn(g) @ v.conj().T for g in finite_elements(q8.group)]
    models = list(_cyclic_models()) + [
        CrossedProductModel(finite_rep(q8.group, conj, "q8-conj")),
        CrossedProductModel(trivial_rep(quaternion_group(), 2)),
        CrossedProductModel(trivial_rep(cyclic_group(5), 3)),
    ]
    for model in models:
        assert crossed_dimension(model) == model.d**2 * model.order, model.rep.name
        gens = spanning_generators(model)
        assert len(gens) == len(generating_set(model.group)) + 2


def test_closure_of_non_star_closed_generator():
    E12 = np.array([[0, 1], [0, 0]], dtype=complex)
    span = algebra_closure([E12], 2)
    assert span.dim == 4
    assert span.residual(vec(np.eye(2))) <= 1e-12
    for M in span.matrices():
        assert span.residual(vec(M.conj().T)) <= 1e-12
