"""Fields over a finite base: one fibre algebra per base point, one gauge
group for the whole bundle, and a stitched invariant separating field state.

Fibres are independent (local product-bundle triviality); stitching imposes
no inter-fibre constraint.  Each fibre is seeded with an even blend of the
maximally mixed state and a seeded random state, group-averaged by
``states.haar_average`` with method "auto", then checked for invariance and
full rank; a fibre that fails either check raises ``FieldAssignmentError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import groups as G
from .states import (
    DensityState,
    haar_average,
    invariance_residual,
    is_separating,
    maximally_mixed,
    random_density,
    repair_psd,
)


class UnknownBasePoint(KeyError):
    pass


class FieldAssignmentError(RuntimeError):
    """A fibre failed its invariance or separating check."""

    def __init__(self, label: str, message: str):
        super().__init__(f"base point {label!r}: {message}")
        self.label = label


@dataclass(frozen=True)
class BundleSpec:
    """Ordered base points with a fibre representation of one common group."""

    points: tuple[str, ...]
    reps: dict

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if not points:
            raise ValueError("a bundle needs at least one base point")
        if len(points) != len(set(points)):
            raise ValueError("base-point labels must be unique")
        if set(self.reps) != set(points):
            raise ValueError("reps must be keyed exactly by the base-point labels")
        group = self.reps[points[0]].group
        for label in points:
            if self.reps[label].group != group:
                raise ValueError(
                    f"fibre at {label!r} uses a different group; one gauge group per bundle"
                )
        object.__setattr__(self, "points", points)

    @property
    def group(self) -> G.GroupDescriptor:
        return self.reps[self.points[0]].group

    def dim(self, label: str) -> int:
        return self.reps[label].dim


@dataclass(frozen=True)
class FieldState:
    """One density state per base point.  ``residuals`` holds, per base
    point, the ``invariance_residual`` that ``assign_invariant_field``
    checked against 1e-7; it is not compared, not written to JSON and empty
    when read back."""

    points: tuple[str, ...]
    states: dict
    residuals: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if set(self.states) != set(self.points):
            raise ValueError("states must be keyed exactly by the base-point labels")
        for label, s in self.states.items():
            if not isinstance(s, DensityState):
                raise ValueError(f"component at {label!r} is not a DensityState")

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "points": list(self.points),
            "states": {label: self.states[label].to_json() for label in self.points},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FieldState":
        try:
            points = tuple(str(p) for p in doc["points"])
            states = {label: DensityState.from_json(doc["states"][label]) for label in points}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed field document: {exc}") from exc
        return cls(points, states)


def restrict(field: FieldState, x: str) -> DensityState:
    """The component state at base point x."""
    try:
        return field.states[x]
    except KeyError:
        raise UnknownBasePoint(f"no base point {x!r} in this field") from None


def _point_seed(seed: int, index: int) -> int:
    """Seed of point index's averaging generators."""
    return (seed * 1_000_003 + index * 8191 + 1) % 2**63


def _blend_seed_state(d: int, blend: float, rng: np.random.Generator) -> DensityState:
    mixed = maximally_mixed(d).rho
    noisy = random_density(d, rng).rho
    return DensityState._from_repair(d, repair_psd(blend * mixed + (1.0 - blend) * noisy))


def _average_one(rep: G.UnitaryRep, seed_state: DensityState, gen_seed: int) -> DensityState:
    return haar_average(rep, seed_state, seed=gen_seed).state


def assign_invariant_field(spec: BundleSpec, seed: int = 0) -> FieldState:
    """Assign every base point an invariant, separating (full-rank) state:
    ``invariance_residual`` at most 1e-7 (exact over a finite group, a
    bound over the whole group from the fibre rep's Lie algebra over a Lie
    group; kept as ``FieldState.residuals``), separating to 1e-10.

    Deterministic for fixed (spec, seed): all randomness flows through
    counter streams keyed by the point index.
    """
    states, residuals = {}, {}
    for idx, label in enumerate(spec.points):
        rep = spec.reps[label]
        seed_state = _blend_seed_state(rep.dim, 0.5, G.philox_stream(seed, idx))
        state = _average_one(rep, seed_state, _point_seed(seed, idx))
        residual = invariance_residual(rep, state)
        sep = is_separating(state)
        if residual > 1e-7 or not sep.separating:
            raise FieldAssignmentError(
                label,
                f"invariance residual {residual:.3e} (tol 1.0e-07), "
                f"min eigenvalue {sep.min_eigenvalue:.3e}",
            )
        states[label] = state
        residuals[label] = residual
    return FieldState(spec.points, states, residuals)


def bundle_spec_from_json(doc: dict) -> BundleSpec:
    """Parse {"points": [{"label": ..., "rep": <rep config>}]}."""
    try:
        entries = list(doc["points"])
        labels = [str(e["label"]) for e in entries]
        reps = {str(e["label"]): G.rep_from_config(e["rep"]) for e in entries}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bundle spec: {exc}") from exc
    return BundleSpec(tuple(labels), reps)
