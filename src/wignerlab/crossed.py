"""Crossed products A x G for finite groups, realized on H tensor l2(G).

The carrier is C^d tensor C^|G| with the fibre factor first; basis vectors of
the group factor follow the Cayley-table order.  The translation unitaries
U_h send x tensor e_g to x tensor e_{g h^-1}; the embedding Phi places
alpha_g(A) in the g-th diagonal block.  U_h Phi(A) U_h^dag = Phi(alpha_h(A))
then holds exactly; ``covariance_check`` measures it on the matrix units
from the (|G|, d, d) element stack alone, since U_h only moves blocks.

The algebra is generated by U_h for h in ``groups.generating_set(G)`` plus
Phi(H_1), Phi(H_2) for two fixed generic Hermitian fibre matrices, which
generate all of M_d; every generator is normal.  The algebra's dimension is
the sum of n_i^2 over the blocks (m_i, n_i) of the generators' commutant,
sum_i M_{m_i} tensor I_{n_i}, whose double commutant is the sum of the
M_{n_i}; it must equal the closed form d^2 |G|, since every model embeds
all of M_d.  ``algebra_closure``, the product closure (words grow one
letter a round), computes the algebra independently; no runtime path
calls it, and the tests check the blocks against it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import groups as G
from .matrixcore import (DEFAULT_TOL, DimensionMismatch, Subspace, _nonnormal, _rank,
                         _unit_norm, algebra_blocks, as_matrix, commutant, vec)


class NonConvergent(RuntimeError):
    """Product closure failed to stabilize (signals a bug, not an input)."""


class ResourceCapExceeded(ValueError):
    """Requested model exceeds the configured ambient-dimension cap."""


@dataclass(frozen=True)
class CrossedProductModel:
    """A finite group acting on M_d through a unitary representation."""

    rep: G.UnitaryRep

    def __post_init__(self):
        if not isinstance(self.rep.group, G.FiniteGroup):
            raise ValueError("crossed products are built for finite groups only")

    @property
    def group(self) -> G.FiniteGroup:
        return self.rep.group

    @property
    def d(self) -> int:
        return self.rep.dim

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def ambient_dim(self) -> int:
        return self.d * self.order


def _translations(group: G.FiniteGroup, hs: np.ndarray) -> np.ndarray:
    """Row k is U_{h_k}'s move of the group factor's basis, g -> g h_k^-1."""
    return group.table[:, group._inverses[hs]].T


def regular_unitary(model: CrossedProductModel, h: G.GroupElement) -> np.ndarray:
    """Translation unitary on the group factor: x tensor e_g -> x tensor e_{g h^-1}."""
    [move] = _translations(model.group, G.element_batch(model.group, (h,)).array)
    # kron(I_d, P_h) as a permutation of columns: column (a, g) is e_(a, g h^-1)
    cols = np.add.outer(np.arange(0, model.ambient_dim, model.order), move).ravel()
    return np.eye(model.ambient_dim, dtype=complex)[:, cols]


def embed(model: CrossedProductModel, A) -> np.ndarray:
    """Phi(A): block-diagonal over the group index with blocks alpha_g(A)."""
    A = as_matrix(A)
    if A.shape[0] != model.d:
        raise DimensionMismatch(f"operator dim {A.shape[0]} != fibre dim {model.d}")
    return _embed(model, G.element_unitaries(model.rep, G.finite_elements(model.group)), A)


def _embed(model: CrossedProductModel, U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Phi(A) from the stack U of every element unitary, in table order."""
    # out[i, g, j, g] = alpha_g(A)[i, j], fibre index slowest as in kron;
    # added into zeros, not assigned, so that every zero entry is +0.0
    idx = np.arange(model.order)
    out = np.zeros((model.d, model.order, model.d, model.order), dtype=complex)
    out[:, idx, :, idx] += U @ A @ U.conj().transpose(0, 2, 1)
    return out.reshape(model.ambient_dim, model.ambient_dim)


def covariance_check(model: CrossedProductModel) -> float:
    """Max over h and the matrix units E_ij of ||U_h Phi(E_ij) U_h^dag - Phi(alpha_h(E_ij))||_F.

    U_h moves block g to g h^-1 (``_translations``), where Phi(alpha_h(A)) is
    W A W^dag, W = U_{g h^-1} U_h; the defect there is u_i u_j^dag - w_i w_j^dag
    for the columns u of U_g and w of W, and the norm sums its squares over g.  From
    the stack alone, ``G.BATCH`` defects at a time: O(|G|^2 d^4), no D x D product.
    """
    U = G.element_unitaries(model.rep, G.finite_elements(model.group))
    n, d = model.order, model.d
    # row (h, g, i) is column i of U_g, and of W for that h and g
    u = np.broadcast_to(U.transpose(0, 2, 1), (n, n, d, d)).reshape(-1, d)
    W = U[_translations(model.group, np.arange(n))] @ U[:, None]
    w = W.transpose(0, 1, 3, 2).reshape(-1, d)
    # sq[(h, g, i, j)] = ||u_i u_j^dag - w_i w_j^dag||_F^2
    sq, uc, wc = np.empty(n * n * d * d), u.conj(), w.conj()
    for start in range(0, len(sq), G.BATCH):
        k = np.arange(start, min(start + G.BATCH, len(sq)))
        i, j = k // d, k // (d * d) * d + k % d
        defect = u[i, :, None] * uc[j, None, :]
        defect -= w[i, :, None] * wc[j, None, :]
        flat = defect.reshape(len(k), -1).view(float)
        sq[k] = np.einsum("ki,ki->k", flat, flat)
    return float(np.sqrt(sq.reshape(n, n, d * d).sum(axis=1).max()))


# a column of the projected products at or below this norm is dropped before the SVD
_SPENT = 1e-3 * DEFAULT_TOL


def _kept_columns(X: np.ndarray) -> tuple[np.ndarray, float]:
    """X without its columns of norm <= ``_SPENT``, and the joint Frobenius
    norm of the columns dropped."""
    norms = np.linalg.norm(X, axis=0)
    spent = norms <= _SPENT
    return X[:, ~spent], float(np.linalg.norm(norms[spent]))


def _orthonormal_columns(X: np.ndarray, slack: float) -> np.ndarray:
    """Orthonormal basis of the rank-cut range of [X, Y], from the SVD of X
    alone, where the dropped columns Y have joint Frobenius norm ``slack``.

    Deleting columns interlaces the singular values: sigma_i(X) <=
    sigma_i([X, Y]) <= sqrt(sigma_i(X)^2 + slack^2), and [X, Y]'s values
    past X's are at most slack.  So a value of X outside (cut - slack,
    100 cut] is on the same side of the cut as [X, Y]'s, and the rank rule
    refuses the rest; max(1, sigma_1(X)) as the scale moves the cut by a
    relative slack^2 at most.
    """
    if X.shape[1] == 0:
        u, s = X, np.zeros(0)
    else:
        u, s, _ = np.linalg.svd(X, full_matrices=False)
    cut = DEFAULT_TOL * max(1.0, s[0] if s.size else 0.0)
    if slack > cut:
        raise RuntimeError(
            f"product closure: dropped columns of joint norm {slack:.3e} exceed "
            f"the rank cutoff {cut:.1e}"
        )
    return u[:, : _rank(s, cut, "product closure", slack)]


def algebra_closure(generators, matrix_dim: int) -> Subspace:
    """Close the span of the generators under products and adjoints.

    The closure is the span of the identity and all words in the letters:
    the generators, and the adjoint of each generator that fails
    ``matrixcore``'s normality test.  A normal N needs no adjoint letter:
    N^dag = p(N) for the polynomial p that interpolates conj(lambda) on N's
    eigenvalues, so a span that holds I and is closed under N is closed
    under N^dag.  The span of words is an algebra, so it is *-closed once it
    holds every generator's adjoint; that is checked at the end, and an
    adjoint outside the span (a generator normal only to the test's
    tolerance) raises ``RuntimeError``.

    Each round multiplies only the previous round's new directions on the
    left, one letter at a time, so words grow one letter a round and no
    block holds more than one letter's products.  Each block is projected
    twice against the basis as it stands, the directions earlier letters
    found this round included (classical Gram-Schmidt with one
    reorthogonalisation); most of its columns then vanish, and those of
    norm <= 1e-3 ``DEFAULT_TOL`` are dropped.  The SVD of the rest is
    rank-cut at ``DEFAULT_TOL`` (1e-10) times max(1, its largest singular
    value) by ``matrixcore``'s rank rule, whose band widens to
    (cut - eps, 100 cut] for the dropped columns' joint norm eps
    (``_orthonormal_columns``).  The result is a subspace of vectorized
    matrix_dim x matrix_dim matrices, unchecked: SVD columns of twice-projected blocks.
    """
    d = matrix_dim
    n = d * d
    mats = [as_matrix(M) for M in generators]
    gens = np.array(mats, dtype=complex).reshape(len(mats), d, d)
    nonnormal = _nonnormal(_unit_norm(gens.copy()), DEFAULT_TOL)
    letters = [*gens, *gens[nonnormal].conj().transpose(0, 2, 1)]
    seed = np.column_stack([vec(np.eye(d, dtype=complex))] + [vec(M) for M in letters])
    basis = _orthonormal_columns(seed, 0.0)
    # basis[:, start:] are the directions the last round found, the seed's at first
    start = rounds = 0
    while start < basis.shape[1]:
        rounds += 1
        if rounds > n * n:
            raise NonConvergent("product closure exceeded the iteration guard")
        # words[k] = M_k^T for the k-th new direction vec(M_k), and vec(L M) =
        # flatten_C(M^T L^T); the contiguous copy lets the matmuls below run in BLAS
        words = np.ascontiguousarray(basis[:, start:].T).reshape(-1, d, d)
        start = basis.shape[1]
        for L in letters:
            # column k is vec(L @ M_k)
            X = (words @ L.T).reshape(-1, n).T
            # (X^dag B)^dag conjugates the block, not the whole basis
            for _ in range(2):
                X = X - basis @ (X.conj().T @ basis).conj().T
            # rebinding X frees the full block before the SVD
            X, slack = _kept_columns(X)
            new = _orthonormal_columns(X, slack)
            if new.shape[1]:
                basis = np.column_stack([basis, new])
    # column k is vec(gens[k]^dag)
    A = gens.conj().reshape(-1, n).T
    outside = np.linalg.norm(A - basis @ (A.conj().T @ basis).conj().T, axis=0)
    cut = DEFAULT_TOL * np.maximum(1.0, np.linalg.norm(A, axis=0))
    if np.any(outside > cut):
        raise RuntimeError(
            f"product closure: a generator's adjoint lies {outside.max():.3e} outside the "
            "closure; it passed the normality test only to its tolerance"
        )
    return Subspace._checked(basis)


# seed of the Philox stream the generic fibre pair is drawn from
_GENERIC_PAIR_SEED = 0x57494752


@functools.lru_cache(maxsize=64)
def _generic_hermitian_pair(d: int) -> np.ndarray:
    """Two fixed generic Hermitian d x d matrices of unit Frobenius norm, read-only."""
    rng = G.philox_stream(_GENERIC_PAIR_SEED)
    Z = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
    pair = np.array([H / np.linalg.norm(H) for H in (z + z.conj().T for z in Z)])
    pair.setflags(write=False)
    return pair


def spanning_generators(model: CrossedProductModel) -> list[np.ndarray]:
    """U_h for h in ``groups.generating_set(G)``, then Phi(H_1) and Phi(H_2).

    The H_i are generic Hermitian: a generic pair generates M_d, and the U_h
    generate every U_g, so the generated *-algebra is span{U_g Phi(A)}.  A
    unitary commutes with what its adjoint commutes with and the Phi(H_i)
    are self-adjoint, so the commutant is *-closed and the double commutant
    is that same algebra.
    """
    gens = [regular_unitary(model, h) for h in G.generating_set(model.group)]
    U = G.element_unitaries(model.rep, G.finite_elements(model.group))
    gens += [_embed(model, U, H) for H in _generic_hermitian_pair(model.d)]
    return gens


def crossed_dimension(model: CrossedProductModel) -> int:
    """Dimension of the generated algebra, the sum of n_i^2 over the blocks
    (m_i, n_i) of the generators' commutant (``algebra_blocks``; by the
    double commutant theorem the algebra is the sum of the M_{n_i}).  It must
    equal the closed form d^2 |G|, and the blocks must fill the ambient space,
    sum m_i n_i = D, and give sum m_i^2 = |G| (the pairs are (d_pi, d d_pi)
    over G's irreps); otherwise ``RuntimeError``."""
    pairs = algebra_blocks(commutant(spanning_generators(model), model.ambient_dim))
    blocks = sum(n * n for _, n in pairs)
    expected = model.d**2 * model.order
    if not (blocks == expected and sum(m * n for m, n in pairs) == model.ambient_dim
            and sum(m * m for m, _ in pairs) == model.order):
        raise RuntimeError(
            f"commutant blocks (m, n) {list(pairs)} give dim {blocks}, "
            f"closed form d^2 |G| = {expected}"
        )
    return blocks


@dataclass(frozen=True)
class TensorIsoReport:
    factor_dims: tuple
    product_of_dims: int
    product_model_dim: int
    ambient_dim: int
    equal: bool

    def to_json(self) -> dict:
        return {
            "factor_dims": list(self.factor_dims),
            "product_of_dims": self.product_of_dims,
            "product_model_dim": self.product_model_dim,
            "ambient_dim": self.ambient_dim,
            "equal": self.equal,
        }


def tensor_iso_check(models, ambient_cap: int = 64) -> TensorIsoReport:
    """Compare dim((A1 x G1) tensor ... tensor (An x Gn)), computed as the
    product of the factor dimensions, with the dimension of the product-group
    model built on the tensor-product fibre, (A1 tensor A2) x (G1 x G2) with
    the product action."""
    models = list(models)
    if len(models) < 2:
        raise ValueError("need at least two factors")
    combined = models[0]
    for m in models[1:]:
        combined = CrossedProductModel(G.product_rep(combined.rep, m.rep))
        if combined.ambient_dim > ambient_cap:
            raise ResourceCapExceeded(
                f"product model ambient dimension {combined.ambient_dim} exceeds cap {ambient_cap}"
            )
    factor_dims = tuple(crossed_dimension(m) for m in models)
    product_of_dims = 1
    for v in factor_dims:
        product_of_dims *= v
    product_model_dim = crossed_dimension(combined)
    return TensorIsoReport(
        factor_dims=factor_dims,
        product_of_dims=product_of_dims,
        product_model_dim=product_model_dim,
        ambient_dim=combined.ambient_dim,
        equal=bool(product_of_dims == product_model_dim),
    )
