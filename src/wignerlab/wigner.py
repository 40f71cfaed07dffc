"""Wigner fixed-point sets and the intersection identity.

For a represented group element g, the fixed points of the dual action
rho -> U(g)^dag rho U(g) form a linear subspace of M_d: the commutant of
U(g).  Given a finite family {g_1 .. g_n}, the intersection of the
per-element fixed subspaces coincides with the fixed subspace of the
averaged map (1/n) sum_j U(g_j)^dag . U(g_j).  This module computes both
sides independently, reports their dimensions and principal angles, and
extracts invariant density matrices by restarted Cesaro iteration of the
averaged map.

A problem holds its elements as one ``groups.ElementBatch``, membership
checked once, and builds the (n, d, d) stack of their unitaries once, on
first use, and keeps it read-only (``WignerProblem.unitaries``); verify,
Cesaro and ``averaged_superop`` all read it.  ``averaged_superop`` sums the
(n, d^2, d^2) stack of pullback superoperators T_j (83 KB at n = 4, d = 6,
freed on return).  Verify takes each element's Wigner set dim from U(g_j)'s
eigenvalues, the intersection from ``matrixcore.commutant`` of the
unitaries and the averaged side from one SVD of S - I, S the T_j's mean:
O(d^6) for that SVD plus O(n d^4) for S; no stack of T_j - I is formed.
Rank decisions follow ``matrixcore``'s rank rule, refusing to decide
(RuntimeError) when a value lies in (tol, 100 tol].

Cesaro's window sums are formed by binary powering from the leading bit of
the window length, and each window's stop test pulls the window mean back
by the whole stack of U_j at once (``cesaro_fixed_point``).
"""

from __future__ import annotations

import functools
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
    singular_values,
    trace_norm,  # noqa: F401  perfbench/layers.py traces wigner.trace_norm by name
    unvec,
    vec,
)
from .states import DensityState, random_density, repair_psd

# lcm(1..8): a Cesaro window of this length annihilates every peripheral
# superoperator eigenvalue that is a root of unity of order <= 8 exactly
_BASE_WINDOW = 840


class NoConvergence(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class WignerProblem:
    """A representation and a finite family of elements, one ``groups.ElementBatch``."""

    rep: G.UnitaryRep
    elements: G.ElementBatch

    def __post_init__(self):
        object.__setattr__(self, "elements", G.element_batch(self.rep.group, self.elements))
        if len(self.elements) < 1:
            raise ValueError("need at least one group element")

    @property
    def d(self) -> int:
        return self.rep.dim

    @functools.cached_property
    def unitaries(self) -> np.ndarray:
        """The read-only (n, d, d) stack of the elements' unitaries, built
        once."""
        stack = G.element_unitaries(self.rep, self.elements)
        stack.setflags(write=False)
        return stack


def _pullback_superops(U: np.ndarray) -> np.ndarray:
    """Stack of U.T kron U^dag (vec(U^dag M U) in column-stacking), one per
    unitary of the (n, d, d) stack U, with the same scalar products as
    ``np.kron``."""
    A = U.transpose(0, 2, 1)
    n, d = A.shape[:2]
    return (A[:, :, None, :, None] * A.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)


def averaged_superop(problem: WignerProblem) -> np.ndarray:
    """Mean of the problem's pullback superoperators."""
    ops = _pullback_superops(problem.unitaries)
    return sum(ops) / len(ops)


_LAST_S: list = [None]  # the last problem's (unitaries, read-only S)


def _shared_superop(problem: WignerProblem) -> np.ndarray:
    """``averaged_superop`` built once for verify and then Cesaro, keyed by the
    identity of the unitaries stack the entry holds (so its id is not reused);
    a miss drops the kept S before it builds: one S is alive (16 MB at d = 32)."""
    if (entry := _LAST_S[0]) is None or entry[0] is not problem.unitaries:
        _LAST_S[0] = None
        (S := averaged_superop(problem)).setflags(write=False)
        _LAST_S[0] = entry = (problem.unitaries, S)
    return entry[1]


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


def _power_sum(S: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k<w} S^k, S^w) by binary powering over the bits of w >= 1,
    starting at the leading bit with (I, S)."""
    total, power = np.eye(S.shape[0], dtype=S.dtype), S
    for bit in bin(w)[3:]:
        # m -> 2m, then m -> m + 1 on a set bit
        total, power = total + power @ total, power @ power
        if bit == "1":
            total, power = total + power, power @ S
    return total, power


def cesaro_fixed_point(
    problem: WignerProblem,
    rho0: DensityState,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10**6,
) -> DensityState:
    """Invariant density matrix in the orbit hull of rho0.

    Averages the iterates of the averaged map T(rho) = (1/n) sum_j
    U(g_j)^dag rho U(g_j) over a window (Cesaro mean), restarting from the
    window mean with doubled window length until every element leaves it
    invariant to tol, max_j ||U(g_j)^dag rho* U(g_j) - rho*||_tr <= tol; the
    mean ||T(rho*) - rho*||_tr can cancel the elements' defects and is not
    checked.  max_iter caps the number of map applications the windows stand
    for; ``NoConvergence.residual`` is the last per-element maximum.
    Every window mean is a convex combination of pullbacks of rho0, so the
    output stays in the orbit hull; plain iteration alone can oscillate on
    the peripheral spectrum, the window means cannot.

    The window sum sum_{k<w} S^k of the averaged superoperator S is formed
    by binary powering, starting at w's leading bit with (I, S): 21 d^2 x d^2
    products for the first window (w = 840), reused when the window doubles,
    two products for each later window; up to five d^2 x d^2 matrices are
    held at once.  The default cap of 10^6 map applications is ten full
    windows and one cut one, at most 78 d^2 x d^2 products (70 at a cap of
    10^5).

    Each stop test forms the (n, d, d) defect stack U_j^dag rho U_j - rho in
    one expression.  A defect whose Frobenius norm exceeds 2 tol (squared
    norms compared with (2 tol)^2) has a trace norm above tol, so such a
    window cannot stop and skips the SVDs; otherwise the trace norms come
    from ``singular_values``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if rho0.d != problem.d:
        raise ValueError(f"state dim {rho0.d} != representation dim {problem.d}")
    U = problem.unitaries
    Ud = U.conj().transpose(0, 2, 1)
    S = _shared_superop(problem)
    side = problem.d

    def max_defect(v: np.ndarray, skip: bool = False) -> float:
        """max_j ||U_j^dag rho U_j - rho||_tr; inf when ``skip`` and some
        defect's Frobenius norm exceeds 2 tol."""
        rho = unvec(v, side)
        defects = Ud @ rho @ U - rho
        flat = defects.reshape(len(U), -1)
        if skip and np.vecdot(flat, flat).real.max() > (2.0 * tol) ** 2:
            return math.inf
        return float(singular_values(defects).sum(axis=1).max())

    sigma = vec(rho0.rho)
    residual = max_defect(sigma, skip=True)
    iterations = 0
    window = _BASE_WINDOW
    power = None
    while residual > tol:
        if iterations >= max_iter:
            residual = max_defect(sigma)
            raise NoConvergence(
                f"Cesaro element invariance defect {residual:.3e} > tol {tol:.1e} "
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
        residual = max_defect(sigma, skip=True)
    return DensityState._from_repair(side, repair_psd(unvec(sigma, side)))


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
        problems.append(WignerProblem(rep, G.haar_sample(rep, base_seed + i, n)))
    return problems


def problem_seed_state(problem: WignerProblem, seed: int) -> DensityState:
    """Deterministic full-rank seed state for Cesaro runs."""
    return random_density(problem.d, G.philox_stream(seed, 999))
