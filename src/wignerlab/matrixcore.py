"""Dense complex linear algebra underneath everything else.

Matrices are plain square ``numpy`` arrays of ``complex128``.  Conventions
fixed here and used by every other module:

* Hilbert-Schmidt inner product ``<A, B> = tr(A^dag B)`` on operator space.
* Column-stacking vectorization ``vec(M) = M.flatten(order="F")``, so that
  ``vec(A M B) = (B.T kron A) vec(M)`` and conjugation ``M -> U M U^dag``
  vectorizes to ``kron(conj(U), U)``.
* Kronecker products index the first factor slowest (numpy's ``kron``).
* Rank decisions use a relative singular-value threshold, default 1e-10.
* ``commutant`` cuts a generic Hermitian element's spectrum into
  eigenvalue clusters only at gaps above sqrt(tol) times its norm.
* Singular values come from numpy's LAPACK SVD; ``singular_values``,
  ``trace_norm`` and ``principal_angle_residual`` raise ``ValueError`` on
  NaN or Inf input (numpy raises ``LinAlgError`` on a NaN but returns NaNs
  for an Inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

DEFAULT_TOL = 1e-10


class NotHermitian(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionMismatch(f"{name} must have dim >= 1")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def frobenius(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def op_norm(M) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(M, 2))


def singular_values(M) -> np.ndarray:
    """Singular values of M, or of each matrix in a stack, descending;
    ValueError on NaN or Inf entries."""
    A = np.asarray(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.svd(A, compute_uv=False)


def trace_norm(M) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(M)))


def vec(M) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M).flatten(order="F")


def unvec(v, d: int | None = None) -> np.ndarray:
    v = np.asarray(v)
    if d is None:
        d = round(np.sqrt(v.size))
    if d * d != v.size:
        raise DimensionMismatch(f"cannot reshape length-{v.size} vector to square matrix")
    return v.reshape((d, d), order="F")


def eig_hermitian(M, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns of a unitary).
    Raises NotHermitian when ||M - M^dag||_F > tol * ||M||_F.
    """
    M = as_matrix(M)
    scale = frobenius(M)
    if frobenius(M - M.conj().T) > tol * max(scale, 1e-300):
        raise NotHermitian(
            f"matrix deviates from Hermitian by {frobenius(M - M.conj().T):.3e} "
            f"(allowed {tol * scale:.3e})"
        )
    vals, vecs = np.linalg.eigh(M)
    return vals, vecs


def kron(A, B) -> np.ndarray:
    """Kronecker product, first factor's index varies slowest."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^ambient_dim with an orthonormal basis.

    ``basis`` holds the basis vectors as columns; for operator subspaces the
    vectors are column-stacked matrices and orthonormality is with respect to
    the Hilbert-Schmidt inner product.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=complex)
        if B.ndim != 2:
            B = B.reshape(self.ambient_dim, -1)
        if B.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis vectors live in dim {B.shape[0]}, expected {self.ambient_dim}"
            )
        if not np.isfinite(B).all():
            raise ValueError("subspace basis contains NaN or Inf entries")
        gram = B.conj().T @ B
        if B.shape[1] and np.max(np.abs(gram - np.eye(B.shape[1]))) > 1e-10:
            raise ValueError("subspace basis is not orthonormal to 1e-10")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto the subspace."""
        B = self.basis
        return B @ (B.conj().T @ v)

    def projector(self) -> np.ndarray:
        B = self.basis
        return B @ B.conj().T

    def residual(self, v: np.ndarray) -> float:
        """Distance of v/||v|| from the subspace (0 for v = 0)."""
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        return float(np.linalg.norm(v - self.project(v)) / nv)

    def matrices(self) -> list[np.ndarray]:
        """Basis vectors unvectorized to matrices (ambient_dim must be a square)."""
        return [unvec(self.basis[:, k]) for k in range(self.dim)]


def _null_bases(M: np.ndarray, tol: float, scale: float | None = None,
                thin: bool = False) -> list[np.ndarray]:
    """Per matrix of the (k, m, n) stack M, an orthonormal basis of
    {v : ||Mv|| <= tol * scale}, from one stacked SVD; scale defaults to that
    matrix's largest singular value.  ``thin`` skips the left factor's
    complement, which loses no right vector when M is tall."""
    _, s, vh = np.linalg.svd(M, full_matrices=not (thin and M.shape[1] >= M.shape[2]))
    ranks = np.sum(s > tol * (s[:, :1] if scale is None else scale), axis=1)
    return [v[r:].conj().T for r, v in zip(ranks, vh)]


def null_spaces(stack, tol: float = DEFAULT_TOL) -> list[Subspace]:
    """Numerical null space of each matrix in a (k, m, n) stack from one
    stacked SVD, bitwise the per-matrix SVDs.  Per matrix: all of C^n if it
    is all zero (or has no rows), else the right-singular vectors whose
    singular values are <= tol * (its largest).  A NaN entry raises
    ``LinAlgError`` (from the SVD), an Inf entry ``ValueError``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = np.asarray(stack, dtype=complex)
    if A.ndim != 3:
        raise DimensionMismatch("null_spaces expects a 3-d stack")
    n = A.shape[2]
    zero = ~A.any(axis=(1, 2))
    # no SVD when every matrix is zero
    bases = zero if zero.all() else _null_bases(A, tol)
    return [Subspace(n, np.eye(n, dtype=complex) if z else B) for z, B in zip(zero, bases)]


def null_space(M, tol: float = DEFAULT_TOL) -> Subspace:
    """Numerical null space of M: ``null_spaces`` on a stack of one."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch("null_space expects a 2-d array")
    return null_spaces(M[None], tol)[0]


# key of the Philox stream the generic Hermitian element's coefficients come from
_GENERIC_SEED = 0x434F4D4D


def commutant(S, d: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Basis of {M : MA = AM for all A in S} as a subspace of vectorized M_d.

    Contract: each A in S is normal or has its adjoint in span(S), so that S'
    is the commutant of the *-algebra S generates; otherwise ``ValueError``.
    The zero-decision scale for each A is ||A||_F, so matrices that commute
    with everything (scalars) yield the full space rather than a noise-rank
    artifact.
    """
    mats = [as_matrix(A) for A in S]
    if any(A.shape[0] != d for A in mats):
        raise DimensionMismatch(f"expected {d}x{d} matrices")
    mats = np.array(mats, dtype=complex).reshape(len(mats), d, d)
    mats /= np.maximum(np.linalg.norm(mats, axis=(1, 2)), 1e-300)[:, None, None]
    adjs = mats.conj().transpose(0, 2, 1)
    span, adj = mats.reshape(-1, d * d).T, adjs.reshape(-1, d * d).T
    outside = np.linalg.norm(adj - span @ np.linalg.lstsq(span, adj, rcond=None)[0], axis=0) > tol
    if np.any(outside & (np.linalg.norm(mats @ adjs - adjs @ mats, axis=(1, 2)) > tol)):
        raise ValueError("S has a matrix that is not normal and whose adjoint is not in span(S)")
    # X = sum a_k (A_k + A_k^dag) + b_k i (A_k - A_k^dag) is in S's *-algebra: S' lies in {X}'
    coef = np.random.Generator(np.random.Philox(key=_GENERIC_SEED)).standard_normal((2, len(mats)))
    Y = np.tensordot(coef[0] + 1j * coef[1], mats, axes=1)
    vals, V = np.linalg.eigh(Y + Y.conj().T)
    # {X}' is spanned by v_i v_j^dag, i and j in one eigenvalue cluster.  A cut
    # at gap g turns eigenvectors across it by about eps ||X|| / g, so cut only
    # at gaps above sqrt(tol) ||X||: that may merge eigenspaces, never split one
    cuts = np.flatnonzero(np.diff(vals) > np.sqrt(tol) * np.abs(vals).max()) + 1
    B = np.column_stack([np.kron(Vc.conj(), Vc) for Vc in np.split(V, cuts, axis=1)])
    for A in mats:
        # B's column j reshaped in C order is M_j^T, and (AM - MA)^T = M^T A^T - A^T M^T
        Mt = B.T.reshape(-1, d, d)
        L = (Mt @ A.T - A.T @ Mt).reshape(-1, d * d).T
        # ||L||_F bounds every singular value: at or below tol, all of B stays
        if np.linalg.norm(L) > tol:
            B = B @ _null_bases(L[None], tol, 1.0, thin=True)[0]
    return Subspace(d * d, B)


def double_commutant(S, d: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Commutant applied twice; in finite dimension this is the generated
    unital *-algebra of S."""
    return commutant(commutant(S, d, tol).matrices(), d, tol)


def principal_angle_residual(a: Subspace, b: Subspace) -> tuple[float, float]:
    """(largest principal angle, smallest cross-Gram singular value).

    The angle is computed as asin of the spectral norm of the projector
    difference, which stays accurate for angles far below what
    arccos(singular value) can resolve.  Dimensions must match for the angle
    to mean subspace equality; callers gate on dim equality separately.
    """
    if a.dim == 0 and b.dim == 0:
        return 0.0, 1.0
    if a.dim == 0 or b.dim == 0:
        return float(np.pi / 2), 0.0
    gap = op_norm(a.projector() - b.projector())
    angle = float(np.arcsin(min(1.0, gap)))
    sigma = singular_values(a.basis.conj().T @ b.basis)
    return angle, float(sigma.min())


def pairwise_mean(stack: np.ndarray) -> np.ndarray:
    """Mean over axis 0 using a fixed-order pairwise summation tree.

    The reduction order is independent of how the terms were produced, so
    concurrent sample generation cannot change the result bitwise.
    """
    arr = np.asarray(stack)
    n = arr.shape[0]
    if n == 0:
        raise ValueError("cannot average an empty stack")
    # each level builds a new array, so the input is never written
    acc = arr
    while acc.shape[0] > 1:
        m = acc.shape[0]
        half = m // 2
        head = acc[: 2 * half : 2] + acc[1 : 2 * half : 2]
        acc = np.concatenate([head, acc[2 * half :]], axis=0) if m % 2 else head
    return acc[0] / n


def matrix_to_json(M) -> list:
    """Nested-list encoding with [re, im] pairs for each entry."""
    A = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    try:
        A = np.asarray([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed {name} encoding: {exc}") from exc
    return as_matrix(A, name)


def int_from_json(value, name: str, below: int | None = None) -> int:
    """A JSON integer, in 0..below-1 when ``below`` is given; ValueError for
    anything else, bools, floats and strings included."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if below is not None and not 0 <= value < below:
        raise ValueError(f"{name} must lie in 0..{below - 1}")
    return int(value)
