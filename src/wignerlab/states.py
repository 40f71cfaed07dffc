"""Density-matrix states and their behaviour under gauge automorphisms.

A state is the functional f(A) = tr(rho A); the dual action of a group
element ("pullback") is rho -> U(g)^dag rho U(g), so that
pair(pullback(g, rho), A) = pair(rho, act(g, A)) holds as an exact
adjunction.  Weak-topology statements from the infinite-dimensional picture
are realized as trace-norm statements, which is equivalent at fixed finite
dimension.
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
        if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
            raise ValueError(f"density matrix trace {np.trace(rho)} differs from 1")
        lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
        if lo < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {lo} below -1e-10")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

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


def repair_psd(rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip eigenvalues below -1e-12 to zero and renormalize the trace.

    Returns (repaired matrix, trace-norm repair magnitude); magnitudes above
    1e-10 indicate a real contract violation and raise.
    """
    herm = (rho + rho.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() >= -1e-12:
        out = herm / np.trace(herm).real
        return out, float(trace_norm(out - rho))
    clipped = np.maximum(vals, 0.0)
    out = (vecs * clipped) @ vecs.conj().T
    out = out / np.trace(out).real
    magnitude = float(trace_norm(out - rho))
    if magnitude > 1e-10:
        raise ValueError(f"PSD repair of magnitude {magnitude:.3e} exceeds 1.0e-10")
    log.debug("PSD repair applied, magnitude %.3e", magnitude)
    return out, magnitude


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


def _max_defect(stack: np.ndarray, rho: np.ndarray, skip_above: float = math.inf) -> float:
    """max_j ||U_j^dag rho U_j - rho||_tr over the (n, d, d) stack of U_j,
    which it overwrites; inf, without the SVDs, when some defect's Frobenius
    norm (a lower bound of its trace norm) exceeds skip_above."""
    defects = _pull_back(stack, rho)
    defects -= rho
    if skip_above < math.inf and np.linalg.norm(defects, axis=(1, 2)).max() > skip_above:
        return math.inf
    return float(singular_values(defects).sum(axis=1).max())


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
    * "quadrature": U(1) uniform grid; for SU(2), ``groups.su2_quadrature_nodes``
      of order max(4, 2d-1), exact because U^dag rho U of a d-dimensional
      representation has spin at most d-1, with O(d^3) nodes (480 at d = 8);
    * "montecarlo": ``count`` Haar samples drawn from ``seed``, fixed-order
      pairwise summation (Lie groups only);
    * "cesaro": ``wigner.cesaro_fixed_point`` to 1e-11 for the averaged map of
      ``generators`` Haar samples drawn from ``seed``, or of a finite group's
      ``groups.generating_set`` (the identity if the group is trivial);
    * "auto": finite -> finite_exact, u1 and su2 -> quadrature,
      su3 -> cesaro.

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
        # wigner imports this module at load time
        from .wigner import WignerProblem, cesaro_fixed_point

        elements = (G.generating_set(rep.group) or [G.identity_element(rep.group)]
                    if kind == "finite" else G.haar_sample(rep, seed, generators))
        problem = WignerProblem(rep, tuple(elements))
        return HaarAverageResult(cesaro_fixed_point(problem, rho, tol=1e-11), method, rep)

    if method == "quadrature" and kind == "su2":
        nodes, weights = G.su2_quadrature_nodes(max(4, 2 * rep.dim - 1))
        avg = weighted_mean(lambda chunk: _pull_back(G.element_unitaries(rep, chunk), rho.rho),
                            nodes, weights, G.BATCH)
    else:
        # no element list outlives its element_unitaries call (4096 for montecarlo)
        if method == "finite_exact":
            if kind != "finite":
                raise MethodUnsupported("finite_exact needs a finite group")
            stack = G.element_unitaries(rep, G.finite_elements(rep.group))
        elif method == "quadrature":
            if kind != "u1":
                raise MethodUnsupported(f"no quadrature for group kind {kind!r}")
            charges = rep.meta.get("weights")
            n = max(2 * int(max(charges) - min(charges)) + 1, 8) if charges else 257
            stack = G.element_unitaries(rep, [G.U1Element(2.0 * math.pi * k / n) for k in range(n)])
        elif method == "montecarlo":
            if kind == "finite":
                raise MethodUnsupported("use finite_exact for finite groups")
            stack = G.element_unitaries(rep, G.haar_sample(rep, seed, count))
        else:
            raise MethodUnsupported(f"unknown method {method!r}")
        avg = pairwise_mean(_pull_back(stack, rho.rho))

    return HaarAverageResult(DensityState(rho.d, repair_psd(avg)[0]), method, rep)


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
