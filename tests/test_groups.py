import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from wignerlab import (
    SU2,
    SU3,
    U1,
    BadElement,
    DimensionMismatch,
    FiniteElement,
    FiniteGroup,
    SU2Element,
    SU3Element,
    U1Element,
    act,
    cyclic_group,
    cyclic_rep,
    element_unitaries,
    element_unitary,
    finite_group_from_json,
    finite_group_to_json,
    finite_rep,
    generating_set,
    haar_quadrature_su2,
    haar_sample,
    philox_stream,
    quaternion_group,
    quaternion_rep,
    su2_fundamental,
    su2_irrep,
    su3_fundamental,
    su3_rep,
    trivial_rep,
    u1_rep,
    UnitaryRep,
)
from wignerlab.groups import (
    _euler_angles,
    _generating_indices,
    _q8_matrices,
    _su2_elements,
    compose,
    direct_sum_rep,
    euler_from_su2,
    finite_elements,
    haar_unitary,
    inverse_element,
    describe_element,
    product_group,
    product_rep,
    su2_matrix,
    su2_quadrature_nodes,
    _validate_rep,
)

from conftest import reference_euler, reference_haar_sample, reference_unitary, random_hermitian


def test_finite_group_rejects_bad_table():
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), np.array([[0, 0], [1, 1]]), 0)
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), np.array([[1, 0], [0, 1]]), 0)


def test_finite_group_rejects_nonassociative_loop():
    # smallest non-associative loop: Latin square with identity and inverses,
    # but (1*1)*2 = 2 while 1*(1*2) = 4
    loop = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(tuple("eabcd"), loop, 0)


def test_single_generator_nonassociative_loop_rejected():
    # right powers of element 1 run through all six elements, so Light's
    # test has one generator to check; (1*1)*2 = 0 while 1*(1*2) = 3
    loop = np.array(
        [
            [0, 1, 2, 3, 4, 5],
            [1, 2, 3, 0, 5, 4],
            [2, 4, 0, 5, 1, 3],
            [3, 0, 5, 4, 2, 1],
            [4, 5, 1, 2, 3, 0],
            [5, 3, 4, 1, 0, 2],
        ]
    )
    assert _generating_indices(loop, 0) == [1]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(tuple("eabcde"), loop, 0)


def _closure(group, gens):
    reached = {group.identity}
    while True:
        grown = reached | {int(group.table[x, s.index]) for x in reached for s in gens}
        if grown == reached:
            return reached
        reached = grown


def test_generating_set_generates_with_log_size():
    z2 = cyclic_group(2)
    groups = [cyclic_group(n) for n in (1, 2, 5, 12)] + [
        quaternion_group(),
        product_group(cyclic_group(3), cyclic_group(4)),
        product_group(z2, product_group(z2, z2)),
        product_group(quaternion_group(), cyclic_group(3)),
    ]
    for group in groups:
        gens = generating_set(group)
        assert _closure(group, gens) == set(range(group.order))
        assert len(gens) <= math.log2(group.order)
    assert len(generating_set(cyclic_group(7))) == 1
    assert len(generating_set(quaternion_group())) == 3


def test_product_group_table_matches_nested_loop_definition():
    for a, b in [(cyclic_group(2), quaternion_group()), (cyclic_group(3), cyclic_group(4))]:
        nb = b.order
        table = product_group(a, b).table
        for i1, j1, i2, j2 in itertools.product(range(a.order), range(nb), range(a.order), range(nb)):
            assert table[i1 * nb + j1, i2 * nb + j2] == a.table[i1, i2] * nb + b.table[j1, j2]


def test_large_cyclic_group_builds_in_quadratic_memory():
    tracemalloc.start()
    try:
        group = cyclic_group(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 1000
    assert peak < 50 * 2**20


def test_cyclic_and_quaternion_pass_construction_checks():
    z5 = cyclic_group(5)
    assert z5.order == 5
    q8 = quaternion_group()
    assert q8.order == 8
    # -1 is central and squares to the identity
    minus1 = FiniteElement(1)
    assert compose(q8, minus1, minus1).index == q8.identity


def _reference_q8_table():
    """Q8's Cayley table by definition: each product matched against the
    eight matrices one np.allclose at a time."""
    mats = list(_q8_matrices())
    table = np.zeros((8, 8), dtype=int)
    for a in range(8):
        for b in range(8):
            matches = [c for c in range(8) if np.allclose(mats[a] @ mats[b], mats[c], atol=1e-12)]
            assert len(matches) == 1
            table[a, b] = matches[0]
    return table


def test_quaternion_table_is_the_allclose_loop():
    assert np.array_equal(quaternion_group().table, _reference_q8_table())
    signs = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"), (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    units = {"1": np.eye(2), "i": np.diag([1j, -1j]), "j": np.array([[0, 1], [-1, 0]]),
             "k": np.array([[0, 1j], [1j, 0]])}
    assert np.array_equal(_q8_matrices(), [s * units[u] for s, u in signs])


def _reference_inverse_failure(table, e):
    """The per-element inverse check: first i whose right inverse is not
    also a left inverse, or None."""
    for i in range(table.shape[0]):
        js = np.flatnonzero(table[i, :] == e)
        if js.size != 1 or table[js[0], i] != e:
            return i
    return None


def test_loop_with_one_sided_inverse_rejected():
    # a Latin square with identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
    loop = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )
    assert _reference_inverse_failure(loop, 0) == 2
    with pytest.raises(ValueError, match=r"^element 2 has no two-sided inverse$"):
        FiniteGroup(tuple("eabcd"), loop, 0)


def _reference_homomorphism_error(rep):
    """The pairwise homomorphism check over the whole table: the message for
    the first (g, h) with ||U_g U_h - U_gh||_F > 1e-10, or None."""
    els = finite_elements(rep.group)
    mats = [reference_unitary(rep, g) for g in els]
    for g in els:
        for h in els:
            gh = compose(rep.group, g, h)
            if np.linalg.norm(mats[g.index] @ mats[h.index] - mats[gh.index]) > 1e-10:
                return (
                    f"representation {rep.name!r} breaks the homomorphism at "
                    f"({rep.group.labels[g.index]}, {rep.group.labels[h.index]})"
                )
    return None


def _small_rotation(d, eps):
    """exp(i eps H) for a fixed Hermitian H: unitary to rounding, eps from 1."""
    w, V = np.linalg.eigh(random_hermitian(d, philox_stream(31)))
    return (V * np.exp(1j * eps * w)) @ V.conj().T


@pytest.mark.parametrize(
    "base, index, factor",
    [
        (quaternion_rep(), 6, -np.eye(2)),
        (quaternion_rep(5), 3, np.diag([1, 1, 1, 1, -1])),
        (quaternion_rep(), 2, _small_rotation(2, 1e-9)),
        (cyclic_rep(5), 3, _small_rotation(5, 1e-9)),
        (cyclic_rep(4, dim=2), 0, np.eye(2)),
    ],
    ids=["q8-sign", "q8d5-pad-sign", "q8-1e-9", "z5-1e-9", "z4-intact"],
)
def test_finite_rep_homomorphism_error_is_the_pairwise_loops(base, index, factor):
    group = base.group
    mats = [element_unitary(base, g) for g in finite_elements(group)]
    mats[index] = mats[index] @ factor
    expected = _reference_homomorphism_error(
        UnitaryRep(group, base.dim, lambda batch: np.array([mats[g.index] for g in batch]),
                   "broken")
    )
    if expected is None:
        finite_rep(group, mats, "broken")
        return
    with pytest.raises(ValueError) as err:
        finite_rep(group, mats, "broken")
    assert str(err.value) == expected


def test_finite_rep_homomorphism_full_table():
    rep = quaternion_rep()
    for g in finite_elements(rep.group):
        for h in finite_elements(rep.group):
            gh = compose(rep.group, g, h)
            err = np.linalg.norm(
                element_unitary(rep, g) @ element_unitary(rep, h) - element_unitary(rep, gh)
            )
            assert err <= 1e-10


def test_cyclic_rep_is_diagonal_roots_of_unity():
    rep = cyclic_rep(2, dim=2)
    assert np.allclose(element_unitary(rep, FiniteElement(1)), np.diag([1.0, -1.0]))
    rep4 = cyclic_rep(4, dim=4)
    U = element_unitary(rep4, FiniteElement(1))
    assert np.allclose(np.diag(U), np.exp(2j * math.pi * np.arange(4) / 4))


def test_su2_identity_element():
    rep = su2_fundamental()
    assert np.allclose(element_unitary(rep, SU2Element(0, 0, 0)), np.eye(2))


def test_u1_weight_rep_formula():
    rep = u1_rep([1, -1])
    theta = 0.7317
    U = element_unitary(rep, U1Element(theta))
    assert np.allclose(U, np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))


def test_su2_euler_pi_rotation_pattern():
    # evaluating the Euler formula at (0, pi, 0) gives an off-diagonal rotation
    U = element_unitary(su2_fundamental(), SU2Element(0, math.pi, 0))
    assert np.allclose(np.abs(U), [[0, 1], [1, 0]], atol=1e-12)


def test_bad_elements_rejected():
    rep = su2_fundamental()
    with pytest.raises(BadElement):
        element_unitary(rep, U1Element(1.0))
    with pytest.raises(BadElement):
        SU2Element(0.0, 4.0, 0.0)
    with pytest.raises(BadElement):
        U1Element(7.0)
    with pytest.raises(BadElement):
        SU3Element(np.eye(3) * 2)
    with pytest.raises(BadElement):
        element_unitary(cyclic_rep(2, dim=2), FiniteElement(5))


def test_haar_samples_are_special_unitary():
    for rep, n in ((su2_fundamental(), 2), (su3_fundamental(), 3)):
        for g in haar_sample(rep, 11, 8):
            U = element_unitary(rep, g)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-10
            assert abs(np.linalg.det(U) - 1) <= 1e-10


def test_haar_sampling_reproducible_and_stream_indexed():
    rep = su2_fundamental()
    a = haar_sample(rep, 42, 5)
    b = haar_sample(rep, 42, 5)
    assert a == b
    # prefix property: sample i depends only on (seed, i)
    c = haar_sample(rep, 42, 2)
    assert c == a[:2]
    assert haar_sample(rep, 43, 2) != c


HAAR_SEEDS = (0, 1, 1001, 2**63 + 5, -3)
HAAR_COUNTS = (1, 2, 257, 4096)


def _exact(elements):
    # json.dumps writes repr of each float, so -0.0 and 0.0 differ
    return [json.dumps(describe_element(g)) for g in elements]


@pytest.mark.parametrize("seed", HAAR_SEEDS)
def test_haar_sample_is_bitwise_the_per_stream_loop(seed):
    reps = (su2_fundamental(), su3_fundamental(), u1_rep([0, 1, -2]), quaternion_rep(2))
    for rep in reps:
        reference = _exact(reference_haar_sample(rep, seed, max(HAAR_COUNTS)))
        for count in HAAR_COUNTS:
            samples = haar_sample(rep, seed, count)
            assert _exact(samples) == reference[:count], (rep.name, seed, count)


@pytest.mark.parametrize("rep", [su2_fundamental(), su3_fundamental(), u1_rep([2, -1]),
                                 cyclic_rep(7, dim=1)], ids=lambda r: r.name)
def test_haar_sample_prefix_contract(rep):
    full = haar_sample(rep, 1001, 300)
    for k in (1, 2, 255, 256, 257, 299):
        assert _exact(haar_sample(rep, 1001, k)) == _exact(full[:k])


def _reps_for_stacks():
    z3 = cyclic_group(3)
    rot = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    yield finite_rep(z3, [np.eye(3), rot, rot @ rot], "z3-perm")
    yield cyclic_rep(5)
    yield quaternion_rep(5)
    yield product_rep(cyclic_rep(3, dim=2), quaternion_rep(2))
    yield u1_rep([0, 1, -2, 3])
    for d in range(2, 9):
        yield su2_irrep(d)
    for d in range(3, 7):
        yield su3_rep(d)


@pytest.mark.parametrize("rep", list(_reps_for_stacks()), ids=lambda r: r.name)
def test_element_unitaries_stack_element_unitary_bitwise(rep):
    if isinstance(rep.group, FiniteGroup):
        elements = finite_elements(rep.group)
    else:
        # more than one validation chunk
        elements = haar_sample(rep, 77, 300)
    stack = element_unitaries(rep, elements)
    reference = np.stack([reference_unitary(rep, g) for g in elements])
    assert stack.shape == reference.shape
    assert stack.tobytes() == reference.tobytes()


def _raised(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return info.value


@pytest.mark.parametrize(
    "rep, elements",
    [
        # an element of the wrong group, after a full chunk of good ones
        (su2_irrep(3), haar_sample(su2_irrep(3), 5, 260) + [U1Element(1.0)]),
        # an out-of-range finite index
        (cyclic_rep(3), [FiniteElement(1), FiniteElement(7)]),
        # a matrix of the wrong shape
        (UnitaryRep(SU2, 3, lambda batch: np.array([np.eye(2)] * len(batch))),
         [SU2Element(0.1, 0.2, 0.3)]),
        # a non-unitary matrix, in the second validation chunk only
        (UnitaryRep(U1, 2, lambda batch: np.array(
            [np.eye(2) * (2.0 if g.theta > 2.9 else 1.0) for g in batch])),
         [U1Element(0.01 * k) for k in range(300)]),
        # a unitary matrix of det e^{i pi/3} for a special group
        (UnitaryRep(SU3, 3, lambda batch: np.array(
            [np.diag([np.exp(1j * math.pi / 3), 1.0, 1.0])] * len(batch))),
         [SU3Element(np.eye(3))]),
    ],
    ids=["wrong-group", "finite-index", "shape", "non-unitary", "det"],
)
def test_element_unitaries_raise_like_element_unitary(rep, elements):
    single = _raised(lambda: [reference_unitary(rep, g) for g in elements])
    for raised in (_raised(lambda: element_unitaries(rep, elements)),
                   _raised(lambda: [element_unitary(rep, g) for g in elements])):
        assert type(raised) is type(single)
        assert str(raised) == str(single)


@pytest.mark.parametrize("count, elements, message", [
    # one matrix too many, in the second validation chunk only
    (lambda n: n + (n < 256), [U1Element(0.01 * k) for k in range(300)],
     "representation produced shape (45, 2, 2), expected (44, 2, 2)"),
    (lambda n: n - 1, [U1Element(1.0)],
     "representation produced shape (0, 2, 2), expected (1, 2, 2)"),
], ids=["one-more", "none"])
def test_element_unitaries_reject_a_wrong_matrix_count(count, elements, message):
    # a stack of the wrong length must not broadcast into the chunk
    rep = UnitaryRep(U1, 2, lambda batch: np.tile(np.eye(2), (count(len(batch)), 1, 1)))
    with pytest.raises(DimensionMismatch) as info:
        element_unitaries(rep, elements)
    assert str(info.value) == message
    # a per-element function: one (d, d) matrix for the whole batch
    per_element = UnitaryRep(U1, 2, lambda batch: np.eye(2))
    with pytest.raises(DimensionMismatch) as info:
        element_unitary(per_element, U1Element(1.0))
    assert str(info.value) == "representation produced shape (2, 2), expected (1, 2, 2)"


@pytest.mark.parametrize("rep, message", [
    (UnitaryRep(SU2, 2, lambda batch: np.array(
        [su2_matrix(g.phi, g.theta, g.psi).T for g in batch]), "su2-T"),
     "representation 'su2-T' breaks the homomorphism"),
    (UnitaryRep(SU3, 3, lambda batch: np.array([g.matrix.T for g in batch]), "su3-T"),
     "representation 'su3-T' breaks the homomorphism"),
    (UnitaryRep(SU2, 2, lambda batch: -np.array(
        [su2_matrix(g.phi, g.theta, g.psi) for g in batch]), "su2-neg"),
     "representation 'su2-neg' does not map identity to identity"),
], ids=["su2-transpose", "su3-transpose", "su2-negated"])
def test_lie_rep_validation_rejects(rep, message):
    with pytest.raises(ValueError) as info:
        _validate_rep(rep)
    assert type(info.value) is ValueError
    assert str(info.value) == message


# Per-element formulas of the built-in Lie representations, kept here as
# independent references for the library's stacked forms (the SU(2)
# fundamental's stack calls su2_matrix once per element).


def _ref_su2_matrix(phi, theta, psi):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    zl = np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    zr = np.array([np.exp(0.5j * psi), np.exp(-0.5j * psi)])
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return (zl[:, None] * ry) * zr[None, :]


def _ref_su2_irrep(dim):
    j = (dim - 1) / 2.0
    mm = j - np.arange(1, dim)
    jplus = np.diag(np.sqrt(j * (j + 1.0) - mm * (mm + 1.0)), 1)
    w, V = np.linalg.eigh((jplus - jplus.T) / 2j)
    w = np.round(2.0 * w) / 2.0
    m = j - np.arange(dim)

    def fn(g):
        ry = (V * np.exp(-1j * g.theta * w)) @ V.conj().T
        return np.exp(1j * g.phi * m)[:, None] * ry * np.exp(1j * g.psi * m)[None, :]

    return fn


def _ref_su3_sym2(g):
    S = np.zeros((9, 6))
    col = 0
    for i in range(3):
        for k in range(i, 3):
            if i == k:
                S[i * 3 + k, col] = 1.0
            else:
                S[i * 3 + k, col] = S[k * 3 + i, col] = 1.0 / math.sqrt(2.0)
            col += 1
    return S.T @ np.kron(g.matrix, g.matrix) @ S


def _ref_su3_padded(dim):
    def fn(g):
        U = np.eye(dim, dtype=complex)
        U[:3, :3] = g.matrix
        return U

    return fn


def _lie_references():
    yield su2_fundamental(), lambda g: _ref_su2_matrix(g.phi, g.theta, g.psi)
    for d in (3, 4, 5, 8, 9):
        yield su2_irrep(d), _ref_su2_irrep(d)
    yield su3_fundamental(), lambda g: g.matrix
    for d in (4, 5):
        yield su3_rep(d), _ref_su3_padded(d)
    yield su3_rep(6), _ref_su3_sym2


@pytest.mark.parametrize("rep, reference", list(_lie_references()),
                         ids=lambda r: getattr(r, "name", ""))
def test_stacked_lie_reps_are_bitwise_the_per_element_formulas(rep, reference):
    # 300 samples: more than one BATCH chunk of element_unitaries
    elements = haar_sample(rep, 2024, 300)
    expected = np.stack([reference(g) for g in elements]).astype(complex).tobytes()
    assert element_unitaries(rep, elements).tobytes() == expected
    assert np.stack([reference_unitary(rep, g) for g in elements]).tobytes() == expected
    if rep.name == "su2-fund":
        direct = np.stack([su2_matrix(g.phi, g.theta, g.psi) for g in elements])
        assert direct.tobytes() == expected


# Per-element formulas of the other built-in representations: U(1), the
# finite-group tables, the trivial rep and a direct sum of Lie reps.


def _ref_u1(weights):
    w = np.asarray(weights, dtype=float)
    return lambda g: np.diag(np.exp(1j * w * g.theta))


def _ref_cyclic(n, weights):
    w = np.asarray(weights)
    return lambda g: np.diag(np.exp(2j * math.pi * ((g.index * w) % n) / n))


def _ref_q8_blocks(dim):
    def fn(g):
        U = np.eye(dim, dtype=complex)
        for at in range(0, dim - 1, 2):
            U[at : at + 2, at : at + 2] = _q8_matrices()[g.index]
        return U

    return fn


def _ref_product(ref_a, ref_b, nb):
    def fn(g):
        i, j = divmod(g.index, nb)
        return np.kron(ref_a(FiniteElement(i)), ref_b(FiniteElement(j)))

    return fn


def _ref_direct_sum(*parts):
    def fn(g):
        blocks = [ref(g) for ref in parts]
        U = np.zeros((sum(len(B) for B in blocks),) * 2, dtype=complex)
        at = 0
        for B in blocks:
            U[at : at + len(B), at : at + len(B)] = B
            at += len(B)
        return U

    return fn


_Z3_PERM = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


def _other_references():
    for weights in ([0, 1, -2, 3], [5], [0, 0, 1, -1, 2, 2, 2]):
        yield u1_rep(weights), _ref_u1(weights)
    yield cyclic_rep(5), _ref_cyclic(5, range(5))
    yield cyclic_rep(6, dim=8), _ref_cyclic(6, range(8))
    yield cyclic_rep(4, weights=[3, -1, 7]), _ref_cyclic(4, [3, -1, 7])
    yield quaternion_rep(2), _ref_q8_blocks(2)
    yield quaternion_rep(5), _ref_q8_blocks(5)
    yield (product_rep(cyclic_rep(3, dim=2), quaternion_rep(2)),
           _ref_product(_ref_cyclic(3, range(2)), _ref_q8_blocks(2), 8))
    yield trivial_rep(cyclic_group(3), 4), lambda g: np.eye(4)
    yield trivial_rep(SU2, 3), lambda g: np.eye(3)
    yield (finite_rep(cyclic_group(3), [np.eye(3), _Z3_PERM, _Z3_PERM @ _Z3_PERM], "z3-perm"),
           lambda g: np.linalg.matrix_power(_Z3_PERM, g.index))
    yield (direct_sum_rep(su2_fundamental(), su2_irrep(3), trivial_rep(SU2, 1)),
           _ref_direct_sum(lambda g: _ref_su2_matrix(g.phi, g.theta, g.psi),
                           _ref_su2_irrep(3), lambda g: np.eye(1)))


@pytest.mark.parametrize("rep, reference", list(_other_references()),
                         ids=lambda r: getattr(r, "name", ""))
def test_other_reps_are_bitwise_the_per_element_formulas(rep, reference):
    if isinstance(rep.group, FiniteGroup):
        elements = finite_elements(rep.group)
    else:
        elements = haar_sample(rep, 2024, 300)
    expected = np.stack([reference(g) for g in elements]).astype(complex).tobytes()
    assert element_unitaries(rep, elements).tobytes() == expected
    assert np.stack([rep.matrix_fn(g) for g in elements]).astype(complex).tobytes() == expected


SU3_MESSAGES = {
    "non-unitary": "SU(3) element is not unitary to 1e-10",
    "det": "SU(3) element determinant differs from 1 by more than 1e-10",
}


@pytest.mark.parametrize("case, spoil", [
    ("non-unitary", lambda M: M * 1.001),
    # unitary, with det e^{i pi/3}
    ("det", lambda M: M * np.exp(1j * math.pi / 9)),
])
def test_haar_sample_su3_stack_check_fires(monkeypatch, case, spoil):
    import wignerlab.groups as groups_module

    rep = su3_fundamental()
    sampler = groups_module._haar_special_unitaries
    bad = groups_module.BATCH + 3
    spoiled = []

    def broken(n, seed, count):
        stack = sampler(n, seed, count)
        stack[bad] = spoil(stack[bad])
        spoiled.append(stack[bad].copy())
        return stack

    monkeypatch.setattr(groups_module, "_haar_special_unitaries", broken)
    with pytest.raises(BadElement) as info:
        haar_sample(rep, 7, 300)
    assert str(info.value) == SU3_MESSAGES[case]
    with pytest.raises(BadElement) as single:
        SU3Element(spoiled[0])
    assert str(single.value) == SU3_MESSAGES[case]


@pytest.mark.parametrize("matrix, error, message", [
    (np.full((3, 3), np.nan), ValueError, "SU(3) element contains NaN or Inf entries"),
    (np.eye(2), BadElement, "SU(3) element must be 3x3, got (2, 2)"),
    (np.ones((3, 2)), DimensionMismatch, "SU(3) element must be square, got shape (3, 2)"),
    (np.eye(3) * 1.001, BadElement, SU3_MESSAGES["non-unitary"]),
    (np.eye(3) * np.exp(1j * math.pi / 9), BadElement, SU3_MESSAGES["det"]),
], ids=["nan", "2x2", "non-square", "non-unitary", "det"])
def test_su3_element_rejects_like_before(matrix, error, message):
    with pytest.raises(ValueError) as info:
        SU3Element(matrix)
    assert type(info.value) is error
    assert str(info.value) == message


def test_haar_sample_su3_elements_are_read_only():
    elements = haar_sample(su3_fundamental(), 5, 300)
    for g in (elements[0], elements[-1]):
        # its own copy: a kept element does not hold the sampled stack
        assert not g.matrix.flags.writeable and g.matrix.base is None
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 0.0
    M = np.eye(3, dtype=complex)
    g = SU3Element(M)
    M[0, 0] = 2.0
    assert g.matrix[0, 0] == 1.0 and not g.matrix.flags.writeable


def test_philox_streams_independent():
    x = philox_stream(9, 0).standard_normal(4)
    y = philox_stream(9, 1).standard_normal(4)
    assert not np.allclose(x, y)


def test_euler_roundtrip_on_samples():
    rng = philox_stream(5)
    for _ in range(50):
        U = haar_unitary(2, rng)
        el = euler_from_su2(U)
        assert np.linalg.norm(su2_matrix(el.phi, el.theta, el.psi) - U) <= 1e-12


def _theta_edge_matrices():
    # theta = 0: U[1, 0] = 0; theta = pi: U[0, 0] = 0; and moduli on either
    # side of the 1e-14 cut, so both branches of each phase are taken
    out = []
    for alpha in (0.0, 0.3, -2.9, math.pi):
        z = np.exp(1j * alpha)
        out.append(np.diag([z, z.conjugate()]))
        out.append(np.array([[0.0, -z.conjugate()], [z, 0.0]]))
    for eps in (1e-15, 1e-14, 3e-14):
        c = math.sqrt(1.0 - eps * eps)
        out.append(np.array([[c, -eps], [eps, c]], dtype=complex))
        out.append(np.array([[eps * 1j, -c], [c, -eps * 1j]]))
    return np.array(out)


def test_euler_at_theta_zero_and_pi_is_the_scalar_formula():
    stack = _theta_edge_matrices()
    reference = [reference_euler(U) for U in stack]
    assert _exact(_su2_elements(*_euler_angles(stack))) == _exact(reference)
    assert _exact([euler_from_su2(U) for U in stack]) == _exact(reference)
    assert [g.theta for g in reference[:8]] == [0.0, math.pi] * 4
    for U, g in zip(stack, reference):
        assert np.linalg.norm(su2_matrix(g.phi, g.theta, g.psi) - U) <= 1e-12


@pytest.mark.parametrize("bad", [
    (math.nan, 0.5, 0.1), (0.1, math.nan, 0.1), (0.1, 0.5, math.inf),
    (7.0, 0.5, 0.1), (0.1, 4.0, 0.1), (0.1, -1e-6, 0.1), (0.1, 0.5, -6.3),
], ids=["nan-phi", "nan-theta", "inf-psi", "phi", "theta-high", "theta-low", "psi"])
def test_su2_elements_raise_the_element_message(bad):
    with pytest.raises(BadElement) as expected:
        SU2Element(*bad)
    # the first failing column is the one named, after good ones
    angles = np.array([(0.0, 0.0, 0.0), (1.0, 2.0, -3.0), bad, (9.0, 9.0, 9.0)]).T
    with pytest.raises(BadElement) as raised:
        _su2_elements(*angles.tolist())
    assert str(raised.value) == str(expected.value)


def test_su2_quadrature_nodes_cached_read_only_and_bitwise():
    order = 9
    n_phi, n_psi = (order + 1) // 2, order
    x, w_theta = np.polynomial.legendre.leggauss((n_phi + 1) // 2)
    psis = 2.0 * math.tau * np.arange(n_psi) / n_psi
    psis = np.where(psis > math.tau, psis - 2.0 * math.tau, psis)
    reference = [SU2Element(phi, theta, psi) for phi in math.tau * np.arange(n_phi) / n_phi
                 for theta in np.arccos(x) for psi in psis]
    w = math.tau / n_phi * w_theta * (2.0 * math.tau / n_psi)
    reference_weights = np.tile(np.repeat(w, n_psi), n_phi).tobytes()
    su2_quadrature_nodes.cache_clear()
    first = su2_quadrature_nodes(order)
    cached = su2_quadrature_nodes(order)
    assert su2_quadrature_nodes.cache_info().hits == 1
    assert su2_quadrature_nodes.cache_info().maxsize is not None
    for elements, weights in (first, cached):
        assert _exact(elements) == _exact(reference)
        assert weights.tobytes() == reference_weights
        assert isinstance(elements, tuple)
        with pytest.raises(ValueError):
            weights[0] = 0.0
        with pytest.raises(AttributeError):
            elements[0].phi = 0.0


def test_haar_first_moment_mc():
    # E|U_00|^2 = 1/n, checked within 5 standard errors at modest size
    for rep, n in ((su2_fundamental(), 2), (su3_fundamental(), 3)):
        vals = np.array(
            [abs(element_unitary(rep, g)[0, 0]) ** 2 for g in haar_sample(rep, 7, 20000)]
        )
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / n) <= 5 * se


def test_quadrature_constant():
    M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = haar_quadrature_su2(lambda el: M, order=8)
    assert np.abs(out - M).max() <= 1e-13


def test_quadrature_fundamental_averages_to_zero():
    out = haar_quadrature_su2(lambda el: su2_matrix(el.phi, el.theta, el.psi), order=24)
    assert np.abs(out).max() <= 1e-10
    # Monte Carlo oracle agrees within statistical error
    rep = su2_fundamental()
    samples = haar_sample(rep, 123, 20000)
    stack = np.stack([element_unitary(rep, g) for g in samples])
    mc = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1).max() / math.sqrt(len(samples))
    assert np.abs(out - mc).max() <= 5 * se


def test_quadrature_first_moment_oracle():
    out = haar_quadrature_su2(
        lambda el: np.array([[abs(su2_matrix(el.phi, el.theta, el.psi)[0, 0]) ** 2]]), order=16
    )
    assert abs(out[0, 0] - 0.5) <= 1e-12


def test_quadrature_conjugation_schur(rng):
    rho = random_hermitian(2, rng)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real

    def f(el):
        U = su2_matrix(el.phi, el.theta, el.psi)
        return U @ rho @ U.conj().T

    out = haar_quadrature_su2(f, order=16)
    assert np.abs(out - np.eye(2) / 2).max() <= 1e-10


@pytest.mark.parametrize("f", [
    lambda el: np.array([[abs(su2_matrix(el.phi, el.theta, el.psi)[0, 0]) ** 2]]),
    lambda el: su2_matrix(el.phi, el.theta, el.psi) @ np.diag([1.0, 2.0j]),
], ids=["1x1", "2x2"])
def test_quadrature_sums_node_by_node(f):
    # order 24 has 1728 nodes, seven chunks; a pairwise sum differs from
    # the running sum in the last bits, for 1x1 values too
    elements, weights = su2_quadrature_nodes(24)
    acc, mass = None, 0.0
    for el, w in zip(elements, weights):
        val = np.asarray(f(el), dtype=complex)
        acc = w * val if acc is None else acc + w * val
        mass += w
    assert haar_quadrature_su2(f, order=24).tobytes() == (acc / mass).tobytes()


def test_quadrature_rejects_low_order():
    with pytest.raises(ValueError):
        haar_quadrature_su2(lambda el: np.eye(2), order=3)


def test_act_identity_unital_and_composition(rng):
    rep = su2_fundamental()
    A = random_hermitian(2, rng)
    e = SU2Element(0, 0, 0)
    assert np.allclose(act(rep, e, A), A)
    g, h = haar_sample(rep, 3, 2)
    assert np.allclose(act(rep, g, np.eye(2)), np.eye(2))
    gh = compose(rep.group, g, h)
    assert np.linalg.norm(act(rep, g, act(rep, h, A)) - act(rep, gh, A)) <= 1e-10


def test_automorphism_properties(rng):
    for rep in (su2_fundamental(), su3_rep(4), quaternion_rep(), cyclic_rep(3, dim=3)):
        d = rep.dim
        g = haar_sample(rep, 21, 1)[0]
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.linalg.norm(act(rep, g, A @ B) - act(rep, g, A) @ act(rep, g, B)) <= 1e-9
        assert np.linalg.norm(act(rep, g, A.conj().T) - act(rep, g, A).conj().T) <= 1e-10
        assert abs(np.linalg.norm(act(rep, g, A), 2) - np.linalg.norm(A, 2)) <= 1e-9


def test_inverse_element_matches_adjoint():
    rep = su2_fundamental()
    g = haar_sample(rep, 8, 1)[0]
    ginv = inverse_element(rep.group, g)
    assert np.linalg.norm(element_unitary(rep, ginv) - element_unitary(rep, g).conj().T) <= 1e-12


def test_quadrature_exact_up_to_spin():
    # order n integrates every spin J <= (n-1)/2 coefficient exactly; the
    # irrep of dim n is spin (n-1)/2, the highest the rule covers
    for order in range(4, 12):
        for d in range(2, order + 1):
            rep = su2_irrep(d)
            out = haar_quadrature_su2(lambda el: element_unitary(rep, el), order=order)
            assert np.abs(out).max() <= 1e-12, (order, d)


def kron_symmetric_irrep(d, g):
    """Reference spin-(d-1)/2 irrep: U^{otimes (d-1)} restricted to the
    symmetric subspace, spanned by the normalized sums of the basis states
    with n ones, n = 0..d-1."""
    k = d - 1
    S = np.zeros((2**k, d))
    for x in range(2**k):
        S[x, bin(x).count("1")] = 1.0
    S /= np.sqrt(S.sum(axis=0))
    U = su2_matrix(g.phi, g.theta, g.psi)
    P = U
    for _ in range(k - 1):
        P = np.kron(P, U)
    return S.T @ P @ S


def test_su2_irrep_matches_symmetric_kronecker_power():
    for d in range(2, 10):
        rep = su2_irrep(d)
        for g in haar_sample(rep, 40 + d, 20):
            assert np.abs(element_unitary(rep, g) - kron_symmetric_irrep(d, g)).max() <= 1e-12


def test_su2_irreps_unitary_and_homomorphic():
    # 16 would need a 2^15-square Kronecker power without the closed form
    for d in (3, 4, 5, 6, 16):
        rep = su2_irrep(d)
        g, h = haar_sample(rep, 31, 2)
        Ug, Uh = element_unitary(rep, g), element_unitary(rep, h)
        assert np.linalg.norm(Ug.conj().T @ Ug - np.eye(d)) <= 1e-10
        Ugh = element_unitary(rep, compose(rep.group, g, h))
        assert np.linalg.norm(Ug @ Uh - Ugh) <= 1e-9
        assert abs(np.linalg.det(Ug) - 1) <= 1e-10


def test_su3_reps_dimensions():
    for d in (3, 4, 5, 6):
        rep = su3_rep(d)
        assert rep.dim == d
        g = haar_sample(rep, 17, 1)[0]
        U = element_unitary(rep, g)
        assert np.linalg.norm(U.conj().T @ U - np.eye(d)) <= 1e-10


def test_trivial_rep():
    rep = trivial_rep(cyclic_group(3), 4)
    for g in finite_elements(rep.group):
        assert np.array_equal(element_unitary(rep, g), np.eye(4))


@pytest.mark.parametrize("build, message", [
    (lambda: quaternion_rep(-1), "dim must be >= 1, got -1"),
    (lambda: quaternion_rep(-3), "dim must be >= 1, got -3"),
    (lambda: quaternion_rep(0), "dim must be >= 1, got 0"),
    (lambda: cyclic_rep(3, dim=0), "dim must be >= 1, got 0"),
    (lambda: cyclic_rep(3, dim=-2), "dim must be >= 1, got -2"),
    (lambda: cyclic_rep(3, weights=[]), "need at least one weight"),
    (lambda: trivial_rep(cyclic_group(3), 0), "dim must be >= 1, got 0"),
    (lambda: trivial_rep(SU2, -1), "dim must be >= 1, got -1"),
], ids=["q8-minus1", "q8-minus3", "q8-0", "zn-dim0", "zn-dim-2", "zn-no-weights",
        "trivial-0", "trivial-minus1"])
def test_rep_builders_reject_dims_below_one(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: cyclic_rep(4, weights=[2.9]), "weights must be integers, got 2.9"),
    (lambda: cyclic_rep(4, weights=[1, 2.0]), "weights must be integers, got 2.0"),
    (lambda: cyclic_rep(4, weights=[True]), "weights must be integers, got True"),
    (lambda: u1_rep([0.5]), "weights must be integers, got 0.5"),
    (lambda: u1_rep([1, np.float64(-1.0)]), "weights must be integers, got np.float64(-1.0)"),
    (lambda: u1_rep([False, 1]), "weights must be integers, got False"),
    (lambda: u1_rep(["1"]), "weights must be integers, got '1'"),
], ids=["zn-2.9", "zn-2.0", "zn-bool", "u1-0.5", "u1-np-float", "u1-bool", "u1-str"])
def test_rep_builders_reject_non_integer_weights(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_rep_builders_take_numpy_integer_weights():
    rep = u1_rep(np.array([2, -1]))
    assert rep.meta["weights"] == (2, -1) and rep.name == "u1(2, -1)"
    assert all(type(w) is int for w in rep.meta["weights"])
    z4 = cyclic_rep(4, weights=np.array([3, 1]))
    assert z4.dim == 2
    # omega = i: element 1 acts as diag(i^3, i^1)
    assert np.allclose(element_unitary(z4, FiniteElement(1)), np.diag([-1j, 1j]), atol=1e-15)


def test_group_json_roundtrip():
    rep = quaternion_rep()
    doc = finite_group_to_json(rep.group, rep)
    group2, rep2 = finite_group_from_json(doc)
    assert group2 == rep.group
    for g in finite_elements(group2):
        assert np.allclose(element_unitary(rep2, g), element_unitary(rep, g), atol=1e-12)


def test_group_json_rejects_more_rep_matrices_than_elements():
    doc = {"labels": ["e", "a"], "table": [[0, 1], [1, 0]], "identity": 0,
           "rep": {"dim": 1, "matrices": [[[[1, 0]]], [[[-1, 0]]], [[[1, 0]]]]}}
    with pytest.raises(ValueError) as info:
        finite_group_from_json(doc)
    assert str(info.value) == "expected 2 matrices, got 3"


def test_group_json_rejects_malformed():
    with pytest.raises(ValueError):
        finite_group_from_json({"labels": ["e", "a"], "table": [[0, 0], [1, 1]], "identity": 0})
    with pytest.raises(ValueError):
        finite_group_from_json({"labels": ["e"], "table": "oops", "identity": 0})
    with pytest.raises(ValueError):
        finite_group_from_json(
            {
                "labels": ["e", "a"],
                "table": [[0, 1], [1, 0]],
                "identity": 0,
                "rep": {"dim": 2, "matrices": [[[[1, 0]]]]},
            }
        )
