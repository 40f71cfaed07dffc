"""Output checks computed apart from wignerlab, with numpy and scipy only.

Every check takes plain matrices (or parsed report values) and returns
``None`` when the output is right, or a one-line description of what is
wrong.  Vectorisation is column-stacking, as in the package: conjugation
``M -> U^dag M U`` has superoperator ``kron(U.T, U^dag)`` and the commutator
``M -> U M - M U`` has ``kron(I, U) - kron(U.T, I)``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

# singular values below RCOND * (largest) count as zero in the reference
# null spaces; every problem the workloads build has a gap far wider than this
RCOND = 1e-9
# the package's own trace-norm tolerance for invariant states
STATE_TOL = 1e-7
# Monte Carlo bounds allow this many standard errors
MC_SIGMAS = 10.0


def trace_norm(M) -> float:
    return float(np.sum(sla.svdvals(M)))


def vec(M) -> np.ndarray:
    return np.asarray(M).flatten(order="F")


def unvec(v, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def su2_from_euler(phi: float, theta: float, psi: float) -> np.ndarray:
    """diag(e^{i phi/2}, e^{-i phi/2}) R_y(theta) diag(e^{i psi/2}, e^{-i psi/2})."""
    left = np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    right = np.diag([np.exp(0.5j * psi), np.exp(-0.5j * psi)])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return left @ np.array([[c, -s], [s, c]]) @ right


def haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random element of SU(n) for reference probes."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)


def fixed_space_basis(unitaries) -> np.ndarray:
    """Orthonormal basis (vectorised columns) of {M : U^dag M U = M for all U},
    from one null space of the stacked ``kron(U.T, U^dag) - I`` blocks."""
    d = unitaries[0].shape[0]
    eye = np.eye(d * d)
    stacked = np.vstack([np.kron(U.T, U.conj().T) - eye for U in unitaries])
    return sla.null_space(stacked, rcond=RCOND)


def commutant_basis(unitaries) -> np.ndarray:
    """Orthonormal basis of the commutant {M : U M = M U for all U}."""
    d = unitaries[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(eye, U) - np.kron(U.T, eye) for U in unitaries])
    return sla.null_space(stacked, rcond=RCOND)


def project(rho, basis: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of rho onto span(basis)."""
    d = rho.shape[0]
    return unvec(basis @ (basis.conj().T @ vec(rho)), d)


def state_problem(rho, tol: float = 1e-10) -> str | None:
    """Hermitian, trace one and positive semidefinite, each to tol."""
    rho = np.asarray(rho)
    if np.linalg.norm(rho - rho.conj().T) > tol:
        return "not Hermitian"
    if abs(np.trace(rho) - 1.0) > tol:
        return f"trace {np.trace(rho).real:.12g} != 1"
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if low < -tol:
        return f"eigenvalue {low:.3e} < 0"
    return None


def identity_problem(intersection_dim: int, averaged_dim: int, verdict: bool,
                     reference_dim: int) -> str | None:
    """Both sides of the fixed-subspace identity match the reference null space."""
    if not verdict:
        return "verdict false"
    if intersection_dim != reference_dim or averaged_dim != reference_dim:
        return (f"dims (intersection {intersection_dim}, averaged {averaged_dim}) "
                f"!= reference {reference_dim}")
    return None


def cesaro_problem(rho, rho0, unitaries, fixed_basis: np.ndarray,
                   invariance_tol: float = 1e-9, projection_tol: float = STATE_TOL) -> str | None:
    """A density matrix each element leaves invariant, equal to the projection of
    rho0 onto the fixed space (von Neumann's mean ergodic theorem)."""
    bad = state_problem(rho)
    if bad:
        return bad
    worst = max(trace_norm(U.conj().T @ rho @ U - rho) for U in unitaries)
    if worst > invariance_tol:
        return f"element invariance defect {worst:.3e} > {invariance_tol:.0e}"
    gap = trace_norm(rho - project(rho0, fixed_basis))
    if gap > projection_tol:
        return f"distance {gap:.3e} to the fixed-space projection > {projection_tol:.0e}"
    return None


def average_problem(rho_out, rho_in, commutant: np.ndarray, tol: float = STATE_TOL) -> str | None:
    """A group average equals the projection of the input onto the commutant."""
    bad = state_problem(rho_out)
    if bad:
        return bad
    gap = trace_norm(rho_out - project(rho_in, commutant))
    if gap > tol:
        return f"distance {gap:.3e} to the commutant projection > {tol:.1e}"
    return None


def monte_carlo_tol(rho_in, commutant: np.ndarray, samples: int) -> float:
    """Trace-norm allowance for an n-sample Haar mean of U^dag rho U.

    The terms have Frobenius variance ||rho||^2 - ||P rho||^2 about their mean
    P rho, and the trace norm is at most sqrt(d) times the Frobenius norm.
    """
    d = rho_in.shape[0]
    spread = np.linalg.norm(rho_in) ** 2 - np.linalg.norm(project(rho_in, commutant)) ** 2
    return MC_SIGMAS * math.sqrt(d * max(spread, 0.0) / samples)


def moments_problem(mats: np.ndarray) -> str | None:
    """Haar samples on SU(n): unitary with det 1, E[U_ij] = 0 and
    E|U_ij|^2 = 1/n, the latter with variance (n-1)/(n^2 (n+1))."""
    count, n, _ = mats.shape
    eye = np.eye(n)
    if np.max(np.abs(np.einsum("kji,kjl->kil", mats.conj(), mats) - eye)) > 1e-10:
        return "sample not unitary"
    if np.max(np.abs(np.linalg.det(mats) - 1.0)) > 1e-10:
        return "sample determinant != 1"
    mean = np.abs(mats.mean(axis=0)).max()
    mean_tol = MC_SIGMAS * math.sqrt(1.0 / (n * count))
    if mean > mean_tol:
        return f"|E U_ij| = {mean:.3e} > {mean_tol:.3e}"
    second = np.abs((np.abs(mats) ** 2).mean(axis=0) - 1.0 / n).max()
    second_tol = MC_SIGMAS * math.sqrt((n - 1) / (n * n * (n + 1) * count))
    if second > second_tol:
        return f"|E|U_ij|^2 - 1/n| = {second:.3e} > {second_tol:.3e}"
    return None


def entropy_of(rho) -> float:
    vals = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), 0.0, None)
    vals = vals[vals > 0.0]
    return float(-np.sum(vals * np.log(vals)))


def entropy_rows_problem(rows, max_n: int) -> str | None:
    """Rows (n, H) for n = 1..max_n with H = log n to 1e-12."""
    if [n for n, _ in rows] != list(range(1, max_n + 1)):
        return "rows do not cover n = 1..max_n in order"
    worst = max(abs(h - math.log(n)) for n, h in rows)
    if worst > 1e-12:
        return f"entropy row off log n by {worst:.3e}"
    return None


def crossed_problem(dim: int, fibre_dim: int, order: int) -> str | None:
    """dim(M_d x G) = d^2 |G| for any action of G on M_d."""
    want = fibre_dim * fibre_dim * order
    return None if dim == want else f"crossed dimension {dim} != d^2|G| = {want}"


def tensor_problem(factor_dims, product_model_dim: int, shapes) -> str | None:
    """Each factor has dim d_i^2 |G_i| and the product model has their product."""
    want = [d * d * n for d, n in shapes]
    if list(factor_dims) != want:
        return f"factor dims {list(factor_dims)} != {want}"
    if product_model_dim != math.prod(want):
        return f"product model dim {product_model_dim} != {math.prod(want)}"
    return None


def separating_problem(rho, tol: float = 1e-10) -> str | None:
    """Full rank: the smallest eigenvalue exceeds tol times the largest."""
    vals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if vals[0] <= tol * max(vals[-1], 1e-300):
        return f"not full rank (min eigenvalue {vals[0]:.3e})"
    return None
