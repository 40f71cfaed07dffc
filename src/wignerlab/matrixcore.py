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
  commutator with A / ||A||_F at its tol on a scale of 1 (verify's
  intersection: tol sqrt(d) on ||U^dag M U - M||_F for a unit-norm M);
  ``crossed.algebra_closure`` at ``DEFAULT_TOL`` times max(1, the largest
  singular value), on the columns left after it drops those of norm at
  most 1e-3 ``DEFAULT_TOL``, with the band widened to (cut - eps, 100 cut]
  by the dropped columns' joint norm eps; ``wigner``'s Wigner sets (U(g)'s
  eigenvalue gaps) and averaged map S - I at their tol on a scale of 1;
  ``algebra_blocks``'s links (0 or 1 in exact arithmetic) at sqrt(1e-10).
* ``commutant`` and ``algebra_blocks`` cut a generic Hermitian element's
  spectrum into eigenvalue clusters only at gaps above sqrt(tol) times its
  norm (``algebra_blocks`` at tol = ``DEFAULT_TOL``).
* One normality test, ``_nonnormal``: ||A A^dag - A^dag A||_F > tol for
  A / ||A||_F, on a stack its caller has scaled (``_unit_norm``).
  ``commutant`` (at its tol) and ``crossed.algebra_closure`` (at
  ``DEFAULT_TOL``) decide by it which inputs need their adjoints.
* Singular values come from numpy's LAPACK SVD; ``singular_values``,
  ``trace_norm`` and ``principal_angle_residual`` raise ``ValueError`` on
  NaN or Inf input (numpy raises ``LinAlgError`` on a NaN but returns NaNs
  for an Inf).
"""

from __future__ import annotations

import functools
import math
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
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def frobenius(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def _norms(x: np.ndarray, axis) -> np.ndarray:
    """Frobenius norms of x over ``axis``: the expression ``np.linalg.norm``
    evaluates for an axis argument, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def singular_values(M) -> np.ndarray:
    """Singular values of M, or of each matrix in a stack, descending;
    ValueError on NaN or Inf entries."""
    A = np.asarray(M)
    if not np.isfinite(A).all():
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
        gram.flat[:: B.shape[1] + 1] -= 1.0
        if B.shape[1] and np.abs(gram).max() > 1e-10:
            raise ValueError("subspace basis is not orthonormal to 1e-10")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @classmethod
    def _checked(cls, basis: np.ndarray) -> "Subspace":
        """``Subspace(n, B)`` checks B; a basis a kernel has just made orthonormal
        (``null_space``, ``commutant``, verify's, the closure's) enters here unchecked."""
        (B := np.ascontiguousarray(basis)).setflags(write=False)
        vars(sub := object.__new__(cls)).update(ambient_dim=B.shape[0], basis=B)
        return sub

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


def _rank(s: np.ndarray, cut: float, what: str, slack: float = 0.0):
    """Number of singular values above ``cut`` along the last axis of s.
    ValueError when cut <= 0; RuntimeError when a value lies in
    (cut - slack, 100 cut], too close to the cutoff for the decision to
    stand.  A caller whose values may each sit up to ``slack`` below the
    ones it decides for passes that slack (``crossed.algebra_closure``)."""
    if cut <= 0:
        raise ValueError("tol must be positive")
    near = (s > cut - slack) & (s <= 100 * cut)
    if near.any():
        raise RuntimeError(
            f"{what}: singular value {s[near].max():.3e} lies within 100x of the "
            f"rank cutoff {cut:.1e}" + (f" or within {slack:.1e} below it" if slack else "")
        )
    return (s > cut).sum(axis=-1)


def _null_basis(M: np.ndarray, tol: float, scale: float | None = None,
                what: str = "null space") -> np.ndarray:
    """Orthonormal basis of {v : ||Mv|| <= tol * scale} for the 2-d M, from
    one SVD and ``_rank``; scale defaults to M's largest singular value.  A
    tall M takes the thin SVD, which loses no right vector."""
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return vh[_rank(s, tol * (s[0] if scale is None else scale), what):].conj().T


def null_space(M, tol: float = DEFAULT_TOL) -> Subspace:
    """Numerical null space of the 2-d M: all of C^n if M is all zero (or
    has no rows), else the right-singular vectors whose singular values are
    <= tol * (its largest).  A NaN entry raises ``LinAlgError`` (from the
    SVD), an Inf entry ``ValueError``; a singular value in (cut, 100 cut]
    raises ``RuntimeError`` (the rank rule above)."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive")
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch("null_space expects a 2-d array")
    B = _null_basis(M, tol) if M.any() else np.eye(M.shape[1], dtype=complex)
    if not np.isfinite(B).all():  # numpy's SVD returns NaNs for an Inf entry
        raise ValueError("subspace basis contains NaN or Inf entries")
    return Subspace._checked(B)


# key of the Philox stream the generic Hermitian element's coefficients come from
_GENERIC_SEED = 0x434F4D4D


@functools.lru_cache(maxsize=64)
def _generic_coefficients(n: int) -> np.ndarray:
    """The generic element's coefficients a_k + i b_k, a read-only (1, n) row."""
    a, b = np.random.Generator(np.random.Philox(key=_GENERIC_SEED)).standard_normal((2, n))
    (c := (a + 1j * b).reshape(1, n)).setflags(write=False)
    return c


def _generic_eigenspaces(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors V of X = Y + Y^dag, Y = sum c_k A_k over the (n, d, d)
    stack mats with ``_generic_coefficients``, and each one's eigenvalue
    cluster label.  A cut at gap g turns eigenvectors across it by about
    eps ||X|| / g, so clusters split only at gaps above sqrt(tol) ||X||:
    that may merge eigenspaces, never split one."""
    n, d = len(mats), mats.shape[-1]
    Y = np.dot(_generic_coefficients(n), mats.reshape(n, d * d)).reshape(d, d)
    vals, V = np.linalg.eigh(Y + Y.conj().T)
    return V, np.cumsum(np.concatenate(([0], np.diff(vals) > np.sqrt(tol) * np.abs(vals).max())))


def _unit_norm(mats: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack with each nonzero matrix divided by its Frobenius
    norm, in place; returns it."""
    mats /= np.maximum(_norms(mats, (1, 2)), 1e-300)[:, None, None]
    return mats


def _nonnormal(A: np.ndarray, tol: float) -> np.ndarray:
    """Which matrices of the (n, d, d) stack A, each of unit Frobenius norm
    or zero (``_unit_norm``), fail the normality test
    ||A A^dag - A^dag A||_F > tol (the zero matrix passes)."""
    adjs = A.conj().transpose(0, 2, 1)
    return _norms(A @ adjs - adjs @ A, (1, 2)) > tol


def commutant(S, d: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Basis of {M : MA = AM for all A in S} as a subspace of vectorized M_d.

    S is a sequence of d x d matrices or an (n, d, d) array; another shape
    raises ``DimensionMismatch``, and an empty S gives all of M_d.  Contract:
    each A in S is normal or has its adjoint in span(S), so that S' is the
    commutant of the *-algebra S generates; otherwise ``ValueError``, also
    when the result is not *-closed to tol (every basis matrix's adjoint
    within tol of the span), which a matrix normal only to tol leaves.  The
    zero-decision scale for each A is ||A||_F, so matrices that commute
    with everything (scalars) yield the full space rather than a noise-rank
    artifact.  A commutator singular value in (tol, 100 tol] raises
    ``RuntimeError`` (the rank rule above).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive")
    if isinstance(S, np.ndarray):
        mats = S.astype(complex)  # a copy, normalized in place below
        if mats.ndim != 3 or mats.shape[1:] != (d, d):
            raise DimensionMismatch(f"expected {d}x{d} matrices")
    else:
        try:
            # the appended identity shapes an empty S as (0, d, d), a wrong one as ragged
            mats = np.array([*S, np.eye(d)], dtype=complex)[:-1]
        except ValueError as exc:
            raise DimensionMismatch(f"expected {d}x{d} matrices") from exc
    if not np.isfinite(mats).all():
        raise ValueError("matrix contains NaN or Inf entries")
    nonnormal = _nonnormal(_unit_norm(mats), tol)
    if nonnormal.any():
        span = mats.reshape(-1, d * d).T
        adj = mats.conj().transpose(0, 2, 1).reshape(-1, d * d).T
        outside = np.linalg.norm(adj - span @ np.linalg.lstsq(span, adj, rcond=None)[0], axis=0) > tol
        if np.any(outside & nonnormal):
            raise ValueError("S has a matrix that is not normal and whose adjoint is not in span(S)")
    # X is in S's *-algebra, so S' lies in {X}', which is spanned by v_i v_j^dag,
    # i and j in one eigenvalue cluster
    V, cluster = _generic_eigenspaces(mats, tol)
    # each cluster's kron(Vc.conj(), Vc) in turn, in C order: B's layout picks
    # the BLAS kernel of B @ N below, and with it the basis bits
    i, j = np.nonzero(cluster[:, None] == cluster[None, :])
    B = np.multiply(V.conj()[:, None, i], V[None, :, j], order="C").reshape(d * d, -1)
    for A in mats:
        # B's column j reshaped in C order is M_j^T, and (AM - MA)^T = M^T A^T - A^T M^T
        Mt = B.T.reshape(-1, d, d)
        L = (Mt @ A.T - A.T @ Mt).reshape(-1, d * d).T
        # ||L||_F bounds every singular value: at or below tol, all of B stays
        if np.linalg.norm(L) > tol:
            B = B @ _null_basis(L, tol, 1.0, what="commutant")
    # a matrix normal only to tol passes the test above without its adjoint;
    # S' is (S u S^dag)' exactly when it is *-closed.  Row b d + a of B is
    # entry (a, b) of each basis matrix, so swapping a and b gives vec(M^T)
    adjs = B.reshape(d, d, -1).swapaxes(0, 1).conj().reshape(d * d, -1)
    outside = adjs - B @ (B.conj().T @ adjs)
    if np.any(np.vecdot(outside, outside, axis=0).real > tol * tol):
        raise ValueError("S' is not closed under adjoints: S has a matrix normal only to tol "
                         "whose adjoint is not in span(S)")
    return Subspace._checked(B)


def algebra_blocks(algebra: Subspace) -> tuple[tuple[int, int], ...]:
    """The pairs (m_i, n_i), largest first, with algebra = sum_i M_{m_i} tensor I_{n_i}.

    ``algebra`` is a unital *-closed algebra of D x D matrices given by its
    orthonormal basis B_k, a ``commutant`` for instance.  After Murota,
    Kanno, Kojima and Kojima (Japan J. Indust. Appl. Math. 27, 2010): one
    generic Hermitian element X of the algebra has m_i eigenspaces of dim n_i
    in block i, found by ``commutant``'s cluster rule, and an element of the
    algebra links two eigenspaces exactly when they lie in one block.  The
    link of clusters a and b, sqrt(sum_k ||V_a^dag B_k V_b||_F^2), is 1 within
    a block and 0 across; it is cut at sqrt(``DEFAULT_TOL``) = 1e-5 by the
    rank rule, so a link in (1e-5, 1e-3] raises ``RuntimeError``.  So do
    links that do not partition the clusters, linked clusters of unequal
    dims, and pairs whose sum of m_i^2 is not the algebra's dim.
    """
    D, k = math.isqrt(algebra.ambient_dim), algebra.dim
    # mats[k] = unvec(basis[:, k])
    mats = algebra.basis.T.reshape(k, D, D).transpose(0, 2, 1)
    V, cluster = _generic_eigenspaces(mats, DEFAULT_TOL)
    starts = np.flatnonzero(np.r_[1, np.diff(cluster)])
    sizes = np.diff(np.r_[starts, D])
    weight = np.sum(np.abs(V.conj().T @ mats @ V) ** 2, axis=0)
    link = np.sqrt(np.add.reduceat(np.add.reduceat(weight, starts, axis=0), starts, axis=1))
    cut = np.sqrt(DEFAULT_TOL)
    _rank(link, cut, "block link")
    linked = link > cut
    # the linked clusters of one block share one row, and the rows of two blocks are disjoint
    rows = np.unique(linked, axis=0)
    if not (linked.diagonal().all() and rows.sum() == len(linked)):
        raise RuntimeError("block links do not partition the eigenvalue clusters")
    pairs = []
    for row in rows:
        if sizes[row].min() != sizes[row].max():
            raise RuntimeError(
                f"eigenspaces of unequal dims {sizes[row].tolist()} linked in one block")
        pairs.append((int(row.sum()), int(sizes[row][0])))
    if sum(m * m for m, _ in pairs) != k:
        raise RuntimeError(f"blocks {pairs} do not account for the algebra's dim {k}")
    return tuple(sorted(pairs, reverse=True))


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
    gap = np.linalg.svd(a.basis - b.basis @ cross.conj().T, compute_uv=False)[0]
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
    items to an (n, ...) array of their v_i that this function may overwrite.
    Both sums run in item order (``np.add.reduce`` is pairwise for one-entry
    values), for every batch."""
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
