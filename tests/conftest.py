import math

import numpy as np
import pytest

from wignerlab import (BadElement, DimensionMismatch, FiniteElement, FiniteGroup, SU2Element,
                       SU3Element, U1Element, commutant, finite_rep)
from wignerlab.groups import TWO_PI, haar_unitary, philox_stream
from wignerlab.matrixcore import Subspace, _norms, frobenius, unvec, vec
from wignerlab.states import DensityState, NoConvergence, averaged_superop, repair_psd

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def rng():
    return philox_stream(0xC0FFEE)


@pytest.fixture
def unchecked_bases(monkeypatch):
    """Every subspace a kernel builds by ``Subspace._checked`` while the
    test runs."""
    seen, build = [], Subspace._checked.__func__

    def spy(cls, basis):
        seen.append(sub := build(cls, basis))
        return sub

    monkeypatch.setattr(Subspace, "_checked", classmethod(spy))
    return seen


def assert_orthonormal(subspaces):
    """Each basis is read-only, in C order and orthonormal to 1e-10, the
    Gram check ``Subspace(n, B)`` runs."""
    for sub in subspaces:
        B = sub.basis
        assert not B.flags.writeable and B.flags.c_contiguous
        assert B.shape == (sub.ambient_dim, sub.dim)
        assert np.abs(B.conj().T @ B - np.eye(sub.dim)).max(initial=0.0) <= 1e-10


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def matrix_group(generators):
    """Close a set of matrices under multiplication and return the
    (FiniteGroup, UnitaryRep) realized by them.  Used to put specific
    unitaries such as Pauli X and Z inside an honest finite group."""
    mats = [np.eye(generators[0].shape[0], dtype=complex)]
    frontier = list(generators)
    while frontier:
        cand = frontier.pop()
        if any(np.allclose(cand, m, atol=1e-12) for m in mats):
            continue
        mats.append(cand)
        for m in list(mats):
            frontier.append(cand @ m)
            frontier.append(m @ cand)
    order = len(mats)
    table = np.zeros((order, order), dtype=int)
    for i in range(order):
        for j in range(order):
            prod = mats[i] @ mats[j]
            matches = [k for k in range(order) if np.allclose(prod, mats[k], atol=1e-12)]
            assert len(matches) == 1, "generators do not close into a finite group"
            table[i, j] = matches[0]
    group = FiniteGroup(tuple(f"g{i}" for i in range(order)), table, 0)
    return group, finite_rep(group, mats, "matrix-group")


ELEMENT_CLASSES = {"finite": FiniteElement, "u1": U1Element, "su2": SU2Element, "su3": SU3Element}


def reference_membership(group, g):
    """Per-element membership: the element class of the group's kind, and
    a finite index inside the group."""
    if type(g) is not ELEMENT_CLASSES[group.kind]:
        raise BadElement(f"element {g!r} does not belong to a {group.kind} group")
    if isinstance(g, FiniteElement) and g.index >= group.order:
        raise BadElement(f"index {g.index} out of range for group of order {group.order}")


def reference_unitary(rep, g):
    """Per-element reference for ``element_unitaries``: membership, one
    ``matrix_fn`` call, shape, then unitarity and the unit determinant
    checked on the 2-D matrix alone."""
    reference_membership(rep.group, g)
    U = np.asarray(rep.matrix_fn(g), dtype=complex)
    if U.shape != (rep.dim, rep.dim):
        raise DimensionMismatch(
            f"representation produced shape {U.shape}, expected ({rep.dim}, {rep.dim})"
        )
    if frobenius(U.conj().T @ U - np.eye(rep.dim)) > 1e-10:
        raise ValueError(f"representation {rep.name!r} produced a non-unitary matrix")
    if rep.group.kind in ("su2", "su3") and abs(np.linalg.det(U) - 1.0) > 1e-10:
        raise ValueError(f"representation {rep.name!r} lost the unit determinant")
    return U


def double_commutant(S, d):
    """Independent reference for the generated unital *-algebra of S: in
    finite dimension it is the commutant of the commutant."""
    return commutant(commutant(S, d).matrices(), d)


def double_normalised_nonnormal(mats, tol):
    """``matrixcore._nonnormal`` as commutant ran it before the test took
    unit-norm input: the stack scaled to unit Frobenius norm, then each
    matrix scaled again, then ||A A^dag - A^dag A||_F > tol."""
    A = mats / np.maximum(_norms(mats, (1, 2)), 1e-300)[:, None, None]
    A = A / np.maximum(_norms(A, (1, 2)), 1e-300)[:, None, None]
    adjs = A.conj().transpose(0, 2, 1)
    return _norms(A @ adjs - adjs @ A, (1, 2)) > tol


def reference_haar_unitary(n, rng):
    """Independent reference for the Gram-Schmidt sampler: the same Ginibre
    draw through LAPACK's QR, R's diagonal phases moved into Q, then Q
    divided by the principal n-th root of its determinant."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)


def reference_power_sum(S, w):
    """Reference for ``states._power_sum``: binary powering over every bit of
    w from (0, I), the products by 0 and by I included."""
    total, power = np.zeros_like(S), np.eye(S.shape[0], dtype=S.dtype)
    for bit in bin(w)[2:]:
        total, power = total + power @ total, power @ power
        if bit == "1":
            total, power = total + power, power @ S
    return total, power


def reference_max_defect(unitaries, rho, skip_above=math.inf):
    """Reference for ``states._max_defect``: one 2-D product and one
    ``np.linalg.svd`` per element, then ``np.linalg.norm`` for the skip test;
    inf when some defect's Frobenius norm exceeds skip_above."""
    defects = [U.conj().T @ rho @ U - rho for U in unitaries]
    if max(np.linalg.norm(D) for D in defects) > skip_above:
        return math.inf
    return float(max(np.linalg.svd(D, compute_uv=False).sum() for D in defects))


def reference_cesaro(problem, rho0, tol=1e-10, max_iter=10**6):
    """Reference for ``cesaro_fixed_point``: its windows and stopping rule
    on ``reference_power_sum`` and ``reference_max_defect``."""
    S = averaged_superop(problem)
    side = problem.d

    def max_defect(v, skip_above=math.inf):
        return reference_max_defect(problem.unitaries, unvec(v, side), skip_above)

    sigma = vec(rho0.rho)
    residual = max_defect(sigma, 2.0 * tol)
    iterations, window, power = 0, 840, None
    while residual > tol:
        if iterations >= max_iter:
            residual = max_defect(sigma)
            raise NoConvergence("reference did not converge", residual)
        w = min(window, max_iter - iterations)
        if power is None or w < window:
            total, power = reference_power_sum(S, w)
        else:
            total, power = total + power @ total, power @ power
        sigma = total @ sigma / w
        iterations += w
        window *= 2
        residual = max_defect(sigma, 2.0 * tol)
    repaired, _ = repair_psd(unvec(sigma, side))
    return DensityState(side, repaired)


def element_index(rep, matrix):
    """Index of the group element represented by the given matrix."""
    from wignerlab import element_unitary
    from wignerlab.groups import finite_elements

    for g in finite_elements(rep.group):
        if np.allclose(element_unitary(rep, g), matrix, atol=1e-12):
            return g
    raise AssertionError("matrix not found in the represented group")


def reference_euler(U):
    """Per-matrix reference for the stacked Euler step: the scalar formula,
    numpy-scalar moduli and phases, one SU2Element at a time."""
    U = np.asarray(U, dtype=complex)
    theta = 2.0 * math.atan2(abs(U[1, 0]), abs(U[0, 0]))
    s = 2.0 * np.angle(U[0, 0]) if abs(U[0, 0]) > 1e-14 else 0.0
    r = -2.0 * np.angle(U[1, 0]) if abs(U[1, 0]) > 1e-14 else 0.0
    return SU2Element((s + r) / 2.0, min(max(theta, 0.0), math.pi), (s - r) / 2.0)


def reference_haar_sample(rep, seed, count):
    """Per-sample reference for ``haar_sample``: sample i is drawn from its
    own ``philox_stream(seed, i)``, one generator and one QR at a time."""
    group = rep.group
    out = []
    for i in range(count):
        rng = philox_stream(seed, i)
        if isinstance(group, FiniteGroup):
            out.append(FiniteElement(int(rng.integers(group.order))))
        elif group.kind == "u1":
            out.append(U1Element(float(rng.uniform(0.0, TWO_PI))))
        elif group.kind == "su2":
            out.append(reference_euler(haar_unitary(2, rng)))
        else:
            out.append(SU3Element(haar_unitary(3, rng)))
    return out
