"""Wigner fixed-point sets and the intersection identity.

For a represented group element g, the fixed points of the dual action
rho -> U(g)^dag rho U(g) form a linear subspace of M_d: the commutant of
U(g).  Given a finite family {g_1 .. g_n}, the intersection of the
per-element fixed subspaces coincides with the fixed subspace of the
averaged map (1/n) sum_j U(g_j)^dag . U(g_j).  This module computes both
sides independently and reports their dimensions and principal angles.

The family, its averaged map and Cesaro live in ``states``.  The package API
and the benchmark's tracer reach ``WignerProblem``, ``averaged_superop``,
``cesaro_fixed_point`` and ``NoConvergence`` as ``wigner.*``, so they are
re-exported here, the same objects: the tracer rebinds every name of a
function, and so counts the builds of ``states``' memo.

Verify reads the problem's read-only stack of unitaries.  It takes each
element's Wigner set dim from U(g_j)'s eigenvalues, the intersection from
``matrixcore.commutant`` of the unitaries and the averaged side from one
SVD of S - I, S the T_j's mean (shared with the problem's Cesaro run):
O(d^6) for that SVD plus O(n d^4) for S; no stack of T_j - I is formed.
Rank decisions follow ``matrixcore``'s rank rule, refusing to decide
(RuntimeError) when a value lies in (tol, 100 tol].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups as G
from .matrixcore import (
    DEFAULT_TOL,
    Subspace,
    _norms,
    _null_basis,
    _rank,
    commutant,
    frobenius,
    null_space,
    principal_angle_residual,
    trace_norm,  # noqa: F401  perfbench/layers.py traces wigner.trace_norm by name
)
from .states import DensityState, _pullback_superops, _shared_superop, random_density
from .states import NoConvergence, WignerProblem, averaged_superop, cesaro_fixed_point  # noqa: F401


def wigner_subspace(rep: G.UnitaryRep, g: G.GroupElement) -> Subspace:
    """Orthonormal basis of {M : U(g)^dag M U(g) = M} (the commutant of U(g))."""
    T = _pullback_superops(G.element_unitaries(rep, (g,)))[0]
    return Subspace(T.shape[0], _null_basis(T - np.eye(T.shape[0]), DEFAULT_TOL, 1.0,
                                            what="Wigner set"))


# Two intersection algorithms for subspaces given by bases.  Verify
# intersects the Wigner sets with ``matrixcore.commutant`` and uses neither.


def intersect_stacked(subspaces: list[Subspace], tol: float = DEFAULT_TOL) -> Subspace:
    """Subspace intersection via one null space of stacked (P_j - I) blocks."""
    if not subspaces:
        raise ValueError("need at least one subspace")
    eye = np.eye(subspaces[0].ambient_dim)
    return null_space(np.vstack([s.projector() - eye for s in subspaces]), tol)


def intersect_alternating(subspaces: list[Subspace]) -> Subspace:
    """Subspace intersection by powering the cyclic product of projectors.

    The product of the orthogonal projectors converges (von Neumann /
    Halperin) to the projector onto the intersection; repeated squaring makes
    the convergence fast.  Eigenvalues that should be exactly 1 are 1 +
    O(eps), and each squaring doubles their excess, so after k squarings the
    iterate is idempotent only to about 2^k n eps: it stops when
    ||Q^2 - Q||_F <= max(1e-12, 2^k n eps), and raises after 100 squarings.
    """
    if not subspaces:
        raise ValueError("need at least one subspace")
    n = subspaces[0].ambient_dim
    Q = np.eye(n, dtype=complex)
    for s in subspaces:
        Q = s.projector() @ Q
    for k in range(100):
        square = Q @ Q
        if frobenius(square - Q) <= max(1e-12, 2.0**k * n * np.finfo(float).eps):
            break
        Q = square
    else:
        raise RuntimeError("alternating projections did not reach an idempotent limit")
    u, sv, _ = np.linalg.svd(Q)
    keep = sv > 0.5
    return Subspace(n, u[:, keep])


@dataclass(frozen=True)
class WignerReport:
    """Both sides of the fixed-set identity for one element family."""

    rep_name: str
    d: int
    element_params: tuple
    element_dims: tuple
    intersection_dim: int
    averaged_dim: int
    max_principal_angle: float
    min_gram_singular_value: float
    inclusion_residual: float
    verdict: bool

    def to_json(self) -> dict:
        return {
            "rep": self.rep_name,
            "d": self.d,
            "elements": list(self.element_params),
            "element_dims": list(self.element_dims),
            "intersection_dim": self.intersection_dim,
            "averaged_dim": self.averaged_dim,
            "max_principal_angle": self.max_principal_angle,
            "min_gram_singular_value": self.min_gram_singular_value,
            "inclusion_residual": self.inclusion_residual,
            "verdict": self.verdict,
        }


def verify_wigner_identity(problem: WignerProblem, tol: float = DEFAULT_TOL) -> WignerReport:
    """Check dim and principal-angle agreement of the intersection of the
    per-element fixed subspaces with the averaged map's fixed subspace.

    The two sides come from independent algorithms: the intersection is
    ``matrixcore.commutant`` of the unitaries at tol, the averaged side the
    null space of S - I from one SVD, O(d^6).  Each element's dim cuts the
    |lambda_a - lambda_b| over U(g_j)'s eigenvalues, the singular values of
    the normal T_j - I.  A value in (tol, 100 tol] raises RuntimeError, and
    so does an intersection larger than some element's Wigner set (other
    than it, for one element).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive")
    U = problem.unitaries
    n, d, d2 = len(U), problem.d, problem.d**2
    lam = np.linalg.eigvals(U)
    gaps = np.abs(lam[:, :, None] - lam[:, None, :]).reshape(n, d2)
    element_dims = d2 - _rank(gaps, tol, "Wigner set")
    inter = commutant(U, d, tol)
    j = int(np.argmin(element_dims))
    if inter.dim > element_dims[j] or (n == 1 and inter.dim != element_dims[j]):
        raise RuntimeError(f"intersection dim {inter.dim} from the commutant, but element {j}'s "
                           f"U(g) has {element_dims[j]} eigenvalue pairs within tol")
    S = _shared_superop(problem)
    avg = Subspace._checked(_null_basis(S - np.eye(d2), tol, 1.0, what="averaged map"))
    B = inter.basis
    inclusion = float(_norms(S @ B - B, 0).max(initial=0.0))

    angle, sigma_min = principal_angle_residual(inter, avg)
    verdict = (
        inter.dim == avg.dim and angle <= 1e-8 and (inter.dim == 0 or sigma_min >= 1.0 - 1e-8)
    )
    return WignerReport(
        rep_name=problem.rep.name,
        d=problem.d,
        element_params=tuple(problem.elements.describe()),
        element_dims=tuple(int(k) for k in element_dims),
        intersection_dim=inter.dim,
        averaged_dim=avg.dim,
        max_principal_angle=angle,
        min_gram_singular_value=sigma_min,
        inclusion_residual=inclusion,
        verdict=bool(verdict),
    )


# ---------------------------------------------------------------------------
# reproducible problem batches (shared by the CLI and the acceptance suite)


_BATCH_KINDS = ("su2", "su3", "zn", "q8")


def _rep_config(kind: str, d: int, order_hint: int) -> dict:
    config = {"kind": kind, "dim": max(d, 3) if kind == "su3" else d}
    if kind == "zn":
        config["n"] = order_hint
    return config


def standard_problem_batch(
    count: int = 200, base_seed: int = 2026, dims: tuple[int, ...] = (2, 3, 4, 5, 6)
) -> list[WignerProblem]:
    """Deterministic schedule of randomized problems cycling over dimensions,
    families of 1 to 4 elements, and the group kinds SU(2), SU(3), Z_n and
    Q8; problem i's elements are ``haar_sample(rep, base_seed + i, n)``,
    bitwise, drawn as one ``groups.haar_families`` batch per group.  Each
    distinct rep config is built once."""
    cache: dict = {}
    reps = []
    for i in range(count):
        kind = _BATCH_KINDS[i % len(_BATCH_KINDS)]
        config = _rep_config(kind, dims[i % len(dims)], 2 + (i // 3) % 5)
        key = tuple(config.values())
        if key not in cache:
            cache[key] = G.rep_from_config(config)
        reps.append(cache[key])
    by_group: dict = {}
    for i, rep in enumerate(reps):
        by_group.setdefault(rep.group, []).append(i)
    families = {}
    for group, index in by_group.items():
        families.update(zip(index, G.haar_families(
            group, [base_seed + i for i in index], [1 + i % 4 for i in index])))
    return [WignerProblem(rep, families[i]) for i, rep in enumerate(reps)]


def problem_seed_state(problem: WignerProblem, seed: int) -> DensityState:
    """Deterministic full-rank seed state for Cesaro runs."""
    return random_density(problem.d, G.philox_stream(seed, 999))
