"""Wigner fixed-point sets and the intersection identity.

For a represented group element g, the fixed points of the dual action
rho -> U(g)^dag rho U(g) form a linear subspace of M_d: the commutant of
U(g).  Given a finite family {g_1 .. g_n}, the intersection of the
per-element fixed subspaces coincides with the fixed subspace of the
averaged map (1/n) sum_j U(g_j)^dag . U(g_j).  This module computes both
sides independently, reports their dimensions and principal angles, and
extracts invariant density matrices by restarted Cesaro iteration of the
averaged map.

Each call builds its problem's n pullback superoperators once, as one
(n, d^2, d^2) stack (83 KB at n = 4, d = 6, freed on return): verify takes
the per-element fixed subspaces from one stacked SVD, O(n d^6), and the
averaged map from the stack's mean; Cesaro takes that mean alone.

The Cesaro window sums sum_{k<w} S^k of the d^2 x d^2 averaged
superoperator S are formed by binary powering, O(log w) products for the
first window, and reused when the window doubles: sum_{k<2w} S^k =
sum_{k<w} S^k + S^w sum_{k<w} S^k, two products.  Each window mean is the
same convex combination of pullbacks that step-by-step iteration gives, at
O(d^6 log w) for the first window and O(d^6) for each later one, with up to
five d^2 x d^2 matrices in memory (S, the sum, the power, two new products).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups as G
from .matrixcore import (
    Subspace,
    frobenius,
    null_space,
    null_spaces,
    principal_angle_residual,
    trace_norm,
    unvec,
    vec,
)
from .states import DensityState, random_density, repair_psd

DEFAULT_TOL = 1e-10

# lcm(1..8): a Cesaro window of this length annihilates every peripheral
# superoperator eigenvalue that is a root of unity of order <= 8 exactly
_BASE_WINDOW = 840


class NoConvergence(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class WignerProblem:
    """A representation together with a finite family of group elements."""

    rep: G.UnitaryRep
    elements: tuple

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("need at least one group element")
        for g in self.elements:
            G.check_membership(self.rep.group, g)
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def d(self) -> int:
        return self.rep.dim


def _pullback_superops(rep: G.UnitaryRep, elements) -> np.ndarray:
    """Stack of U.T kron U^dag (vec(U^dag M U) in column-stacking), one per
    element, with the same scalar products as ``np.kron``."""
    A = G.element_unitaries(rep, elements).transpose(0, 2, 1)
    n, d = A.shape[:2]
    return (A[:, :, None, :, None] * A.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)


def averaged_superop(problem: WignerProblem) -> np.ndarray:
    ops = _pullback_superops(problem.rep, problem.elements)
    return sum(ops) / len(ops)


def wigner_subspace(rep: G.UnitaryRep, g: G.GroupElement, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {M : U(g)^dag M U(g) = M} (the commutant of U(g))."""
    S = _pullback_superops(rep, (g,))[0]
    return null_space(S - np.eye(S.shape[0]), tol)


def averaged_fixed_subspace(problem: WignerProblem, tol: float = DEFAULT_TOL) -> Subspace:
    """Fixed subspace of the averaged map (1/n) sum_j U(g_j)^dag . U(g_j)."""
    S = averaged_superop(problem)
    return null_space(S - np.eye(S.shape[0]), tol)


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

    The intersection is computed twice (alternating projections and null-space
    stacking) as a guard against threshold artifacts; the averaged side comes
    from its own null-space computation.
    """
    ops = _pullback_superops(problem.rep, problem.elements)
    eye = np.eye(ops.shape[1])
    subs = null_spaces(ops - eye, tol)
    inter = intersect_stacked(subs, tol)
    inter_alt = intersect_alternating(subs)
    if inter.dim != inter_alt.dim:
        raise RuntimeError(
            f"intersection algorithms disagree: stacked {inter.dim}, alternating {inter_alt.dim}"
        )
    S = sum(ops) / len(ops)
    avg = null_space(S - eye, tol)
    inclusion = 0.0
    for k in range(inter.dim):
        v = inter.basis[:, k]
        inclusion = max(inclusion, float(np.linalg.norm(S @ v - v)))

    angle, sigma_min = principal_angle_residual(inter, avg)
    verdict = (
        inter.dim == avg.dim and angle <= 1e-8 and (inter.dim == 0 or sigma_min >= 1.0 - 1e-8)
    )
    return WignerReport(
        rep_name=problem.rep.name,
        d=problem.d,
        element_params=tuple(G.describe_element(g) for g in problem.elements),
        element_dims=tuple(s.dim for s in subs),
        intersection_dim=inter.dim,
        averaged_dim=avg.dim,
        max_principal_angle=angle,
        min_gram_singular_value=sigma_min,
        inclusion_residual=inclusion,
        verdict=bool(verdict),
    )


def _power_sum(S: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k<w} S^k, S^w) by binary powering over the bits of w."""
    total, power = np.zeros_like(S), np.eye(S.shape[0], dtype=S.dtype)
    for bit in bin(w)[2:]:
        # m -> 2m, then m -> m + 1 on a set bit
        total, power = total + power @ total, power @ power
        if bit == "1":
            total, power = total + power, power @ S
    return total, power


def cesaro_fixed_point(
    problem: WignerProblem,
    rho0: DensityState,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10**5,
) -> DensityState:
    """Invariant density matrix in the orbit hull of rho0.

    Averages the iterates of the averaged map T(rho) = (1/n) sum_j
    U(g_j)^dag rho U(g_j) over a window (Cesaro mean), restarting from the
    window mean with doubled window length until ||T(rho*) - rho*||_tr <= tol.
    max_iter caps the number of map applications the windows stand for.
    Every window mean is a convex combination of pullbacks of rho0, so the
    output stays in the orbit hull; plain iteration alone can oscillate on
    the peripheral spectrum, the window means cannot.

    The window sum sum_{k<w} S^k of the averaged superoperator S is formed
    by binary powering, O(d^6 log w) for the first window, and reused when
    the window doubles, two d^2 x d^2 products for each later window; up to
    five d^2 x d^2 matrices are held at once.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if rho0.d != problem.d:
        raise ValueError(f"state dim {rho0.d} != representation dim {problem.d}")
    S = averaged_superop(problem)
    side = problem.d

    def t_residual(v: np.ndarray) -> float:
        return trace_norm(unvec(S @ v - v, side))

    sigma = vec(rho0.rho)
    residual = t_residual(sigma)
    iterations = 0
    window = _BASE_WINDOW
    power = None
    while residual > tol:
        if iterations >= max_iter:
            raise NoConvergence(
                f"Cesaro iteration residual {residual:.3e} > tol {tol:.1e} "
                f"after {iterations} iterations",
                residual,
            )
        w = min(window, max_iter - iterations)
        if power is None or w < window:
            total, power = _power_sum(S, w)
        else:
            # the previous window had length w / 2
            total, power = total + power @ total, power @ power
        sigma = total @ sigma / w
        iterations += w
        window *= 2
        residual = t_residual(sigma)
    repaired, _ = repair_psd(unvec(sigma, side))
    return DensityState(side, repaired)


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
    Q8; elements are drawn from the seed schedule base_seed + index.  Each
    distinct rep config is built once."""
    cache: dict = {}
    problems = []
    for i in range(count):
        n = 1 + i % 4
        kind = _BATCH_KINDS[i % len(_BATCH_KINDS)]
        config = _rep_config(kind, dims[i % len(dims)], 2 + (i // 3) % 5)
        key = tuple(config.values())
        if key not in cache:
            cache[key] = G.rep_from_config(config)
        rep = cache[key]
        elements = tuple(G.haar_sample(rep, base_seed + i, n))
        problems.append(WignerProblem(rep, elements))
    return problems


def problem_seed_state(problem: WignerProblem, seed: int) -> DensityState:
    """Deterministic full-rank seed state for Cesaro runs."""
    return random_density(problem.d, G.philox_stream(seed, 999))
