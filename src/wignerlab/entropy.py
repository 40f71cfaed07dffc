"""Von Neumann entropy, partition entropy, and uniform-weight projection states.

Natural log is the default base; pass ``base=2`` for bits.  A uniform
n-cell partition has entropy log n, which is the value carried by the
equal-weight projection mixtures built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrixcore import frobenius
from .states import DensityState


class NotOrthonormal(ValueError):
    """Supplied vectors are not orthonormal within tolerance."""


def _entropy_of(values: np.ndarray, base: float) -> float:
    if not 1.0 < base < math.inf:
        raise ValueError("base must be a finite number > 1")
    nz = values[values > 0.0]
    h = float(-np.sum(nz * np.log(nz))) + 0.0  # avoid -0.0
    return h / math.log(base)


def vn_entropy(rho: DensityState, base: float = math.e) -> float:
    """-tr(rho log rho) over the eigenvalues, with 0 log 0 = 0.

    Eigenvalues are clipped to [0, 1] when within 1e-12; anything further out
    is a broken state and raises.
    """
    vals = rho.eigenvalues()
    if vals[0] < -1e-12 or vals[-1] > 1.0 + 1e-12:
        raise ValueError(f"eigenvalues outside [0,1] beyond 1e-12: [{vals[0]}, {vals[-1]}]")
    return _entropy_of(np.clip(vals, 0.0, 1.0), base)


@dataclass(frozen=True)
class PartitionWeights:
    """Cell weights of an n-partition: nonnegative, summing to one."""

    n: int
    p: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        if len(p) != self.n or self.n < 1:
            raise ValueError(f"expected {self.n} weights, got {len(p)}")
        if any(x < 0.0 for x in p):
            raise ValueError("weights must be nonnegative")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(p)}, not 1")
        if not all(map(math.isfinite, p)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, n: int) -> "PartitionWeights":
        return cls(n, tuple(1.0 / n for _ in range(n)))


def partition_entropy(w: PartitionWeights, base: float = math.e) -> float:
    """Shannon entropy -sum p_j log p_j of the cell weights."""
    return _entropy_of(np.asarray(w.p), base)


def no_hair_state(vectors: Sequence) -> DensityState:
    """Uniform mixture (1/n) sum_k |y_k><y_k| of orthonormal vectors.

    Every cell gets the same weight 1/n, so the entropy of the result is
    exactly log n.
    """
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        raise ValueError("need at least one vector")
    d = cols[0].size
    n = len(cols)
    if n > d:
        raise ValueError(f"cannot fit {n} orthonormal vectors in dimension {d}")
    V = np.column_stack(cols)
    if frobenius(V.conj().T @ V - np.eye(n)) > 1e-10:
        raise NotOrthonormal("vectors are not orthonormal to 1e-10")
    return DensityState(d, (V @ V.conj().T) / n)
