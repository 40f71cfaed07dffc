"""Dense complex linear algebra underneath everything else.

Matrices are plain square ``numpy`` arrays of ``complex128``.  Conventions
fixed here and used by every other module:

* Hilbert-Schmidt inner product ``<A, B> = tr(A^dag B)`` on operator space.
* Column-stacking vectorization ``vec(M) = M.flatten(order="F")``, so that
  ``vec(A M B) = (B.T kron A) vec(M)`` and conjugation ``M -> U M U^dag``
  vectorizes to ``kron(conj(U), U)``.
* Kronecker products index the first factor slowest (numpy's ``kron``).
* One rank rule, ``_rank``, decides every cut of singular values into a
  subspace: the cut is tol times the caller's scale, the rank counts the
  values above it, and a value in (cut, 100 cut] is too close to the cut to
  decide, so ``_rank`` raises ``RuntimeError`` naming the rank cutoff
  instead.  ``null_space`` takes its ``tol`` (default ``DEFAULT_TOL`` =
  1e-10) times the matrix's largest singular value; ``commutant`` cuts each
  commutator at ``DEFAULT_TOL`` on a scale of 1; ``crossed.algebra_closure``
  at ``DEFAULT_TOL`` times max(1, the largest singular value); ``wigner``'s
  Wigner sets, their intersection and the averaged map at their tol on a
  scale of 1 (each map there is T - I with ||T|| <= 1).
* ``commutant`` cuts a generic Hermitian element's spectrum into
  eigenvalue clusters only at gaps above sqrt(DEFAULT_TOL) times its norm.
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


def eig_hermitian(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns of a unitary).
    Raises NotHermitian when ||M - M^dag||_F > DEFAULT_TOL * ||M||_F.
    """
    M = as_matrix(M)
    scale = frobenius(M)
    if frobenius(M - M.conj().T) > DEFAULT_TOL * max(scale, 1e-300):
        raise NotHermitian(
            f"matrix deviates from Hermitian by {frobenius(M - M.conj().T):.3e} "
            f"(allowed {DEFAULT_TOL * scale:.3e})"
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


def _rank(s: np.ndarray, cut: float, what: str):
    """Number of singular values above ``cut`` along the last axis of s.
    ValueError when cut <= 0; RuntimeError when a value lies in
    (cut, 100 cut], too close to the cutoff for the decision to stand."""
    if cut <= 0:
        raise ValueError("tol must be positive")
    near = (s > cut) & (s <= 100 * cut)
    if near.any():
        raise RuntimeError(
            f"{what}: singular value {s[near].max():.3e} lies within 100x of the "
            f"rank cutoff {cut:.1e}"
        )
    return np.sum(s > cut, axis=-1)


def _null_basis(M: np.ndarray, tol: float, scale: float | None = None,
                thin: bool = False, what: str = "null space") -> np.ndarray:
    """Orthonormal basis of {v : ||Mv|| <= tol * scale} for the 2-d M, from
    one SVD and ``_rank``; scale defaults to M's largest singular value.
    ``thin`` skips the left factor's complement, which loses no right vector
    when M is tall."""
    _, s, vh = np.linalg.svd(M, full_matrices=not (thin and M.shape[0] >= M.shape[1]))
    return vh[_rank(s, tol * (s[0] if scale is None else scale), what):].conj().T


def null_space(M, tol: float = DEFAULT_TOL) -> Subspace:
    """Numerical null space of the 2-d M: all of C^n if M is all zero (or
    has no rows), else the right-singular vectors whose singular values are
    <= tol * (its largest).  A NaN entry raises ``LinAlgError`` (from the
    SVD), an Inf entry ``ValueError``; a singular value in (cut, 100 cut]
    raises ``RuntimeError`` (the rank rule above)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch("null_space expects a 2-d array")
    n = M.shape[1]
    return Subspace(n, _null_basis(M, tol) if M.any() else np.eye(n, dtype=complex))


# key of the Philox stream the generic Hermitian element's coefficients come from
_GENERIC_SEED = 0x434F4D4D


def commutant(S, d: int) -> Subspace:
    """Basis of {M : MA = AM for all A in S} as a subspace of vectorized M_d.

    Contract: each A in S is normal or has its adjoint in span(S), so that S'
    is the commutant of the *-algebra S generates; otherwise ``ValueError``.
    The zero-decision scale for each A is ||A||_F, so matrices that commute
    with everything (scalars) yield the full space rather than a noise-rank
    artifact.  A commutator singular value in (DEFAULT_TOL, 100 DEFAULT_TOL]
    raises ``RuntimeError`` (the rank rule above), here and in
    ``double_commutant``.
    """
    tol = DEFAULT_TOL
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
            B = B @ _null_basis(L, tol, 1.0, thin=True, what="commutant")
    return Subspace(d * d, B)


def double_commutant(S, d: int) -> Subspace:
    """Commutant applied twice; in finite dimension this is the generated
    unital *-algebra of S."""
    return commutant(commutant(S, d).matrices(), d)


def principal_angle_residual(a: Subspace, b: Subspace) -> tuple[float, float]:
    """(largest principal angle, smallest cross-Gram singular value).

    For equal dims the angle is asin ||A - B B^dag A||_2 of the orthonormal
    bases A and B, the sine of the largest angle, which stays accurate for
    angles far below what arccos(singular value) can resolve.  Unequal dims
    give pi/2: some vector of the larger subspace is orthogonal to the
    smaller one.
    """
    if a.dim == 0 or b.dim == 0:
        return (0.0, 1.0) if a.dim == b.dim else (float(np.pi / 2), 0.0)
    cross = a.basis.conj().T @ b.basis
    sigma = float(singular_values(cross).min())
    if a.dim != b.dim:
        return float(np.pi / 2), sigma
    gap = op_norm(a.basis - b.basis @ cross.conj().T)
    return float(np.arcsin(min(1.0, gap))), sigma


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


def weighted_mean(values, items, weights: np.ndarray, batch: int) -> np.ndarray:
    """sum_i w_i v_i / sum_i w_i, ``values`` mapping each chunk of ``batch``
    items to a new (n, ...) array of their v_i.  Both sums run in item order
    (``np.add.reduce`` is pairwise for one-entry values), for every batch."""
    acc = None
    for start in range(0, len(items), batch):
        chunk = values(items[start : start + batch])
        chunk *= weights[start : start + batch].reshape((-1,) + (1,) * (chunk.ndim - 1))
        if acc is not None:
            chunk[0] += acc
        acc = np.add.accumulate(chunk, axis=0, out=chunk)[-1].copy()
    return acc / np.cumsum(weights)[-1]


def matrix_to_json(M) -> list:
    """Nested-list encoding with [re, im] pairs for each entry."""
    A = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    try:
        A = np.asarray([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed {name} encoding: {exc}") from exc
    if any(isinstance(x, bool) for row in data for z in row for x in z):
        raise ValueError(f"malformed {name} encoding: true and false are not numbers")
    return as_matrix(A, name)


def int_from_json(value, name: str, below: int | None = None) -> int:
    """A JSON integer, in 0..below-1 when ``below`` is given; ValueError for
    anything else, bools, floats and strings included."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if below is not None and not 0 <= value < below:
        raise ValueError(f"{name} must lie in 0..{below - 1}")
    return int(value)
