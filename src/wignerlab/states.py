"""Density-matrix states and their behaviour under gauge automorphisms.

A state is the functional f(A) = tr(rho A); the dual action of a group
element ("pullback") is rho -> U(g)^dag rho U(g), so that
pair(pullback(g, rho), A) = pair(rho, act(g, A)) holds as an exact
adjunction.  Weak-topology statements from the infinite-dimensional picture
are realized as trace-norm statements, which is equivalent at fixed finite
dimension.

Every average lives here.  Besides ``haar_average``'s sums, a finite family
g_1 .. g_n (a ``WignerProblem``, its unitaries built once) has the averaged
map S = (1/n) sum_j U(g_j)^dag . U(g_j) (``averaged_superop``, the last
problem's S kept by ``_shared_superop``), and ``cesaro_fixed_point`` takes
its restarted Cesaro means, window sums by binary powering.  Every
invariance check takes its trace norms in one kernel, ``_max_defect``.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import groups as G
from .matrixcore import (
    DEFAULT_TOL,
    DimensionMismatch,
    as_matrix,
    eig_hermitian,
    frobenius,
    int_from_json,
    matrix_from_json,
    matrix_to_json,
    pairwise_mean,
    singular_values,
    trace_norm,
    unvec,
    vec,
    weighted_mean,
)

log = logging.getLogger(__name__)


class MethodUnsupported(ValueError):
    """Averaging method incompatible with the group kind."""


@dataclass(frozen=True, eq=False)
class DensityState:
    """Hermitian, positive semidefinite, trace-one matrix; two states are
    equal when their matrices are."""

    d: int
    rho: np.ndarray

    def __post_init__(self):
        rho = as_matrix(self.rho, "density matrix")
        if rho.shape[0] != self.d:
            raise DimensionMismatch(f"declared d={self.d} but matrix is {rho.shape[0]}x{rho.shape[0]}")
        if frobenius(rho - rho.conj().T) > 1e-10:
            raise ValueError("density matrix is not Hermitian to 1e-10")
        trace = np.trace(rho)
        if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > 1e-10:
            raise ValueError(f"density matrix trace {trace} differs from 1")
        lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
        if lo < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {lo} below -1e-10")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def _from_repair(cls, d: int, repair: "_Repair") -> "DensityState":
        """``DensityState(d, rho)`` checks rho.  ``repair_psd``'s output is finite; unclipped,
        it is Hermitian exactly, and of trace 1 to d eps once its lowest eigenvalue (the
        repair's own, checked here) is >= -1e-10.  Any other output gets every check."""
        if repair.lowest is None or repair.lowest < -1e-10:
            return cls(d, repair[0])
        vars(state := object.__new__(cls)).update(d=d, rho=repair[0].copy())
        state.rho.setflags(write=False)
        return state

    def __eq__(self, other):
        if not isinstance(other, DensityState):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.rho, other.rho)

    def eigenvalues(self) -> np.ndarray:
        vals, _ = eig_hermitian((self.rho + self.rho.conj().T) / 2.0)
        return vals

    def to_json(self) -> dict:
        return {"d": self.d, "rho": matrix_to_json(self.rho)}

    @classmethod
    def from_json(cls, doc: dict) -> "DensityState":
        try:
            d = int_from_json(doc["d"], "d")
            rho = matrix_from_json(doc["rho"], "rho")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed state document: {exc}") from exc
        return cls(d, rho)


def maximally_mixed(d: int) -> DensityState:
    return DensityState(d, np.eye(d, dtype=complex) / d)


def pure_state(vector) -> DensityState:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector cannot define a pure state")
    v = v / n
    return DensityState(v.size, np.outer(v, v.conj()))


def random_density(d: int, rng: np.random.Generator) -> DensityState:
    """Full-rank random density matrix rho = G G^dag / tr(G G^dag)."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    rho = g @ g.conj().T
    return DensityState(d, rho / np.trace(rho).real)


class _Repair(tuple):
    lowest = None  # (matrix, magnitude)'s lowest eigenvalue by the repair's eigh, unless clipped


def repair_psd(rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip eigenvalues below -1e-12 to zero and renormalize the trace.

    Returns (repaired matrix, trace-norm repair magnitude); magnitudes above
    1e-10 indicate a real contract violation and raise.
    """
    herm = (rho + rho.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() >= -1e-12:
        out = herm / (trace := np.trace(herm).real)
        repair = _Repair((out, float(trace_norm(out - rho))))
        repair.lowest = float(min(vals[[0, -1]] / trace))  # a negative trace reverses vals
        return repair
    clipped = np.maximum(vals, 0.0)
    out = (vecs * clipped) @ vecs.conj().T
    out = out / np.trace(out).real
    magnitude = float(trace_norm(out - rho))
    if magnitude > 1e-10:
        raise ValueError(f"PSD repair of magnitude {magnitude:.3e} exceeds 1.0e-10")
    log.debug("PSD repair applied, magnitude %.3e", magnitude)
    return _Repair((out, magnitude))


def pair(rho: DensityState, A) -> complex:
    """Predual pairing f(A) = tr(rho A)."""
    A = as_matrix(A)
    if A.shape[0] != rho.d:
        raise DimensionMismatch(f"operator dim {A.shape[0]} != state dim {rho.d}")
    return complex(np.trace(rho.rho @ A))


def pullback(rep: G.UnitaryRep, g: G.GroupElement, rho: DensityState) -> DensityState:
    """Dual action rho -> U(g)^dag rho U(g)."""
    if rho.d != rep.dim:
        raise DimensionMismatch(f"state dim {rho.d} != representation dim {rep.dim}")
    U = G.element_unitary(rep, g)
    return DensityState(rho.d, U.conj().T @ rho.rho @ U)


def _pull_back(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Overwrite each U of the stack with U^dag rho U, one batch at a time, so
    no temporary is as large as the stack; returns the stack."""
    for start in range(0, len(stack), G.BATCH):
        U = stack[start : start + G.BATCH]
        U[...] = U.conj().transpose(0, 2, 1) @ rho @ U
    return stack


def trace_distance(a: DensityState, b: DensityState) -> float:
    return trace_norm(a.rho - b.rho)


def invariance_residual(
    rep: G.UnitaryRep, state: DensityState, probes: int = 20, seed: int = 0
) -> float:
    """Max trace-norm defect of the state under a deterministic probe set of
    group elements (all elements for finite groups, fixed-seed Haar otherwise):
    the largest trace norm in the stack U(g)^dag rho U(g) - rho."""
    if isinstance(rep.group, G.FiniteGroup):
        elements = G.finite_elements(rep.group)
    else:
        elements = G.haar_sample(rep, seed, probes)
    if state.d != rep.dim:
        raise DimensionMismatch(f"state dim {state.d} != representation dim {rep.dim}")
    return _max_defect(G.element_unitaries(rep, elements), state.rho)


def _max_defect(unitaries: np.ndarray, rho: np.ndarray, skip_above: float = math.inf) -> float:
    """max_j ||U_j^dag rho U_j - rho||_tr over the (n, d, d) stack of U_j,
    the defect stack formed in one expression.  A defect whose Frobenius
    norm exceeds ``skip_above`` (squared norms compared with its square,
    taken as x * x: x**2 raises OverflowError past 1.3e154) has a trace norm
    above it too: then inf is returned without the SVDs."""
    defects = unitaries.conj().transpose(0, 2, 1) @ rho @ unitaries - rho
    flat = defects.reshape(len(defects), -1)
    if np.vecdot(flat, flat).real.max() > skip_above * skip_above:
        return math.inf
    return float(singular_values(defects).sum(axis=1).max())


# ---------------------------------------------------------------------------
# the averaged map of a finite family and its Cesaro means

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

    Each stop test is ``_max_defect`` of the window mean, skipping the SVDs
    when some defect's Frobenius norm exceeds 2 tol: its trace norm is then
    above tol, and the window cannot stop.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive")
    if rho0.d != problem.d:
        raise ValueError(f"state dim {rho0.d} != representation dim {problem.d}")
    U = problem.unitaries
    S = _shared_superop(problem)
    side = problem.d
    sigma = vec(rho0.rho)
    residual = _max_defect(U, unvec(sigma, side), 2.0 * tol)
    iterations = 0
    window = _BASE_WINDOW
    power = None
    while residual > tol:
        if iterations >= max_iter:
            residual = _max_defect(U, unvec(sigma, side))
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
        residual = _max_defect(U, unvec(sigma, side), 2.0 * tol)
    return DensityState._from_repair(side, repair_psd(unvec(sigma, side)))


@dataclass(frozen=True)
class HaarAverageResult:
    """The averaged state, the method that ran and the representation it
    averaged over.  ``residual`` is the state's ``invariance_residual`` over
    the default probe set (20 probes, seed 0), computed on first read."""

    state: DensityState
    method: str
    rep: G.UnitaryRep

    @functools.cached_property
    def residual(self) -> float:
        return invariance_residual(self.rep, self.state)


_AUTO_METHOD = {"finite": "finite_exact", "u1": "quadrature", "su2": "quadrature", "su3": "cesaro"}


def haar_average(
    rep: G.UnitaryRep,
    rho: DensityState,
    method: str = "auto",
    seed: int = 0,
    count: int = 4096,
    generators: int = 3,
) -> HaarAverageResult:
    """Group-average a state: rho_bar = integral of U(g)^dag rho U(g) dg.

    Methods:

    * "finite_exact": uniform sum over a finite group;
    * "quadrature": U(1) uniform grid over twice the span of the weights in
      ``rep.meta`` (none recorded raises); for SU(2), the product rule of order
      max(4, 2d-1), exact because U^dag rho U of a d-dimensional
      representation has spin at most d-1, summed one Euler axis at a time
      (``groups.su2_axis_rules``: phi, then theta, then psi), so O(d)
      conjugations (27 at d = 8) instead of the product's O(d^3) nodes;
    * "montecarlo": ``count`` Haar samples drawn from ``seed``, fixed-order
      pairwise summation (Lie groups only);
    * "cesaro": ``cesaro_fixed_point`` to 1e-11 for the averaged map of
      ``generators`` Haar samples drawn from ``seed``, or of a finite group's
      ``groups.generating_set`` (the identity if the group is trivial);
    * "auto": finite -> finite_exact, u1 and su2 -> quadrature, su3 -> cesaro.

    No invariance residual is computed here: the result's ``residual`` is
    computed on first read, and a caller that wants another probe set calls
    ``invariance_residual`` itself.
    """
    if rho.d != rep.dim:
        raise DimensionMismatch(f"state dim {rho.d} != representation dim {rep.dim}")
    kind = rep.group.kind
    if method == "auto":
        method = _AUTO_METHOD[kind]

    if method == "cesaro":
        # only the trivial group has an empty generating set: its one element
        elements = (G.generating_set(rep.group) or G.finite_elements(rep.group)
                    if kind == "finite" else G.haar_sample(rep, seed, generators))
        problem = WignerProblem(rep, elements)
        return HaarAverageResult(cesaro_fixed_point(problem, rho, tol=1e-11), method, rep)

    if method == "quadrature" and kind == "su2":
        # the product rule's triple sum, one axis at a time: U = U_phi U_theta U_psi
        # makes U^dag rho U three conjugations in turn, phi's innermost.  The
        # three rules' unitaries are one validated stack, each rule a slice of
        # it: at d <= 8 one element_unitaries call's fixed cost is most of the work
        rules = G.su2_axis_rules(max(4, 2 * rep.dim - 1))
        stack = G.element_unitaries(rep, G.SU2Batch(np.concatenate([n.array for n, _ in rules])))
        avg = rho.rho
        for nodes, weights in rules:
            U, stack = stack[: len(nodes)], stack[len(nodes):]
            avg = weighted_mean(lambda chunk, m=avg: _pull_back(chunk, m), U, weights, G.BATCH)
    else:
        if method == "finite_exact":
            if kind != "finite":
                raise MethodUnsupported("finite_exact needs a finite group")
            stack = G.element_unitaries(rep, G.finite_elements(rep.group))
        elif method == "quadrature":
            if kind != "u1":
                raise MethodUnsupported(f"no quadrature for group kind {kind!r}")
            if not (charges := rep.meta.get("weights")):
                raise MethodUnsupported(f"U(1) representation {rep.name!r} records no weights")
            n = max(2 * int(max(charges) - min(charges)) + 1, 8)
            stack = G.element_unitaries(rep, G.U1Batch(2.0 * math.pi * np.arange(n) / n))
        elif method == "montecarlo":
            if kind == "finite":
                raise MethodUnsupported("use finite_exact for finite groups")
            stack = G.element_unitaries(rep, G.haar_sample(rep, seed, count))
        else:
            raise MethodUnsupported(f"unknown method {method!r}")
        avg = pairwise_mean(_pull_back(stack, rho.rho))

    return HaarAverageResult(DensityState._from_repair(rho.d, repair_psd(avg)), method, rep)


@dataclass(frozen=True)
class SeparatingResult:
    separating: bool
    min_eigenvalue: float
    witness: np.ndarray | None
    witness_pairing: float | None


def is_separating(rho: DensityState) -> SeparatingResult:
    """Full-rank test: f(A^dag A) = 0 forces A = 0 iff rho has no kernel.

    Eigenvalues at or below ``DEFAULT_TOL`` times the largest count as zero.
    When the state fails, the witness is the projection onto the (numerical)
    null eigenspace: a nonzero A with tr(rho A^dag A) <= DEFAULT_TOL.
    """
    vals, vecs = eig_hermitian((rho.rho + rho.rho.conj().T) / 2.0)
    threshold = DEFAULT_TOL * max(vals[-1], 1e-300)
    if vals[0] > threshold:
        return SeparatingResult(True, float(vals[0]), None, None)
    null_cols = vecs[:, vals <= threshold]
    witness = null_cols @ null_cols.conj().T
    pairing = float(np.trace(rho.rho @ witness.conj().T @ witness).real)
    return SeparatingResult(False, float(vals[0]), witness, pairing)
