"""Groups, concrete unitary representations, and gauge automorphisms.

Four group kinds are supported: finite groups given by a Cayley table, and
the compact Lie groups U(1), SU(2), SU(3).  SU(2) elements are parameterized
by Euler angles with the convention

    U(phi, theta, psi) = diag(e^{i phi/2}, e^{-i phi/2})
                         . R_y(theta)
                         . diag(e^{i psi/2}, e^{-i psi/2})

with theta in [0, pi] and phi, psi in [-2pi, 2pi] (the double cover needs a
4pi worth of combined phase range).  The spin-j irrep (dimension 2j+1) is
the same product in closed form, diag(e^{i m phi}) . exp(-i theta J_y) .
diag(e^{i m psi}) with m = j, j-1, ..., -j, at O(d^3) per element.

Haar integrals over SU(2) use a product rule in Euler coordinates that is
exact for every matrix coefficient of spin J <= (order-1)/2: trapezoid rules
in phi and psi, Gauss-Legendre in cos(theta), O(J^3) nodes in all.
U^dag rho U for a d-dimensional representation has spin at most d-1, so
order 2d-1 averages it exactly with O(d^3) nodes: the table
``su2_quadrature_nodes``, built once per order and cached (read-only), and
summed in node order (``weighted_mean``).

Haar sampling is Ginibre + QR with diagonal-phase correction, then division
by the principal n-th root of the determinant for the special groups
(Mezzadri, Notices AMS 54, 2007).  All randomness flows through Philox
counter streams keyed by (seed, stream index): sample i of
``haar_sample(rep, seed, count)`` is drawn from stream (seed, i) alone, so
sampling is reproducible, order-independent and prefix-stable.  A batch
re-keys one Philox in place per sample instead of building a generator per
stream; each sample's one call is its draw, and QR, determinant and both
phase corrections run on stacks of ``BATCH`` matrices, bitwise
``haar_unitary(n, philox_stream(seed, i))``.  SU(2) samples become Euler
angles in one stacked step, except the moduli and theta, which stay scalar
to keep their bits; SU(3) samples are checked special unitary once, as one
(count, 3, 3) stack in chunks; each element keeps a read-only copy of its
row.

Every representation has one matrix function, ``UnitaryRep.stack_fn``,
from a batch of N elements to their (N, d, d) matrices; ``matrix_fn(g)``
is it on a batch of one, so both give the same bits.  A finite-group
representation is one read-only (|G|, d, d) table indexed by element.
``element_unitaries`` is the one place where elements become validated
unitaries, a chunk of elements per call; ``element_unitary`` is it on a
stack of one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .matrixcore import (DimensionMismatch, as_matrix, frobenius, int_from_json,
                         matrix_from_json, matrix_to_json, weighted_mean)

TWO_PI = 2.0 * math.pi


class BadElement(ValueError):
    """Group element is malformed or does not belong to the group."""


# ---------------------------------------------------------------------------
# group descriptors


@dataclass(frozen=True)
class LieGroup:
    kind: str


U1 = LieGroup("u1")
SU2 = LieGroup("su2")
SU3 = LieGroup("su3")


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as labels plus a Cayley table (table[i, j] = index of g_i g_j)."""

    labels: tuple[str, ...]
    table: np.ndarray
    identity: int

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.labels == other.labels
            and self.identity == other.identity
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.labels, self.identity))

    def __post_init__(self):
        n = len(self.labels)
        table = np.asarray(self.table, dtype=int)
        if table.shape != (n, n):
            raise ValueError(f"Cayley table must be {n}x{n}, got {table.shape}")
        full = np.broadcast_to(np.arange(n), (n, n))
        if not (np.array_equal(np.sort(table, axis=1), full)
                and np.array_equal(np.sort(table, axis=0), full.T)):
            raise ValueError("Cayley table is not a Latin square")
        e = self.identity
        if not (0 <= e < n):
            raise ValueError("identity index out of range")
        if not (np.all(table[e, :] == np.arange(n)) and np.all(table[:, e] == np.arange(n))):
            raise ValueError("declared identity is not a two-sided identity")
        # the Latin square holds one e per row: the right inverse of each i
        inverses = np.argmax(table == e, axis=1)
        one_sided = table[inverses, np.arange(n)] != e
        if one_sided.any():
            raise ValueError(f"element {np.argmax(one_sided)} has no two-sided inverse")
        # a Latin square with identity is only a loop; the translation
        # unitaries U_h U_k = U_{hk} need actual associativity.  Light's test:
        # the s with (xs)y = x(sy) for all x, y are closed under the product,
        # so checking the generators of the whole table suffices, in O(n^2 k)
        for s in _generating_indices(table, e):
            if not np.array_equal(table[table[:, s], :], table[:, table[s, :]]):
                raise ValueError("Cayley table is not associative")
        table = table.copy()
        table.setflags(write=False)
        inverses.setflags(write=False)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_inverses", inverses)

    @property
    def kind(self) -> str:
        return "finite"

    @property
    def order(self) -> int:
        return len(self.labels)


GroupDescriptor = FiniteGroup | LieGroup


def _generated(table: np.ndarray, identity: int, gens: list[int]) -> np.ndarray:
    """Mask of the elements reached from the identity by right multiplication
    with the generators (breadth first)."""
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[identity] = True
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = int(table[x, s])
                if not seen[y]:
                    seen[y] = True
                    nxt.append(y)
        frontier = nxt
    return seen


def _generating_indices(table: np.ndarray, identity: int) -> list[int]:
    gens: list[int] = []
    seen = _generated(table, identity, gens)
    while not seen.all():
        gens.append(int(np.argmin(seen)))
        seen = _generated(table, identity, gens)
    return gens


def generating_set(group: FiniteGroup) -> list[FiniteElement]:
    """A generating set, greedily: repeatedly add the first element outside
    the subgroup generated so far.  Each addition at least doubles that
    subgroup, so there are at most log2 |G| elements (1 for Z_n, 3 for Q8,
    none for the trivial group)."""
    return [FiniteElement(i) for i in _generating_indices(group.table, group.identity)]


# ---------------------------------------------------------------------------
# group elements


@dataclass(frozen=True)
class FiniteElement:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise BadElement(f"negative element index {self.index}")


@dataclass(frozen=True)
class U1Element:
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta < TWO_PI) or not math.isfinite(self.theta):
            raise BadElement(f"U(1) angle must lie in [0, 2pi), got {self.theta}")


# slotted: node tables and sample lists hold thousands of them
@dataclass(frozen=True, slots=True)
class SU2Element:
    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        ok = (
            -1e-12 <= self.theta <= math.pi + 1e-12
            and abs(self.phi) <= TWO_PI + 1e-12
            and abs(self.psi) <= TWO_PI + 1e-12
        )
        if not ok or not all(map(math.isfinite, (self.phi, self.theta, self.psi))):
            raise BadElement(
                f"Euler angles out of range: phi={self.phi} theta={self.theta} psi={self.psi}"
            )


@dataclass(frozen=True, eq=False)
class SU3Element:
    matrix: np.ndarray

    def __eq__(self, other):
        return isinstance(other, SU3Element) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __post_init__(self):
        M = as_matrix(self.matrix, "SU(3) element").copy()
        _check_su3(M[None])
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)


def _check_su3(M: np.ndarray) -> None:
    """Raise unless every matrix of the (N, 3, 3) stack M is finite and
    special unitary to 1e-10: ||M^dag M - I||_F and |det M - 1|."""
    if M.shape[1:] != (3, 3):
        raise BadElement(f"SU(3) element must be 3x3, got {M.shape[1:]}")
    if not np.all(np.isfinite(M)):
        raise ValueError("SU(3) element contains NaN or Inf entries")
    gram = M.conj().transpose(0, 2, 1) @ M - np.eye(3)
    if np.any(np.linalg.norm(gram, "fro", axis=(1, 2)) > 1e-10):
        raise BadElement("SU(3) element is not unitary to 1e-10")
    if np.any(np.abs(np.linalg.det(M) - 1.0) > 1e-10):
        raise BadElement("SU(3) element determinant differs from 1 by more than 1e-10")


def _su3_elements(stack: np.ndarray) -> list[SU3Element]:
    """One element per matrix of a stack that ``_check_su3`` has passed,
    each holding a read-only copy of its row, without checking it again.
    Copies, not views: a kept element does not keep the whole stack alive."""
    elements = []
    for M in stack:
        M = M.copy()
        M.setflags(write=False)
        g = object.__new__(SU3Element)
        object.__setattr__(g, "matrix", M)
        elements.append(g)
    return elements


# SU2Element's ranges as bounds on the rows phi, theta, psi: |phi| and
# |psi| <= 2pi + 1e-12, theta in [-1e-12, pi + 1e-12]
_SU2_LOW = np.array([[-(TWO_PI + 1e-12)], [-1e-12], [-(TWO_PI + 1e-12)]])
_SU2_HIGH = np.array([[TWO_PI + 1e-12], [math.pi + 1e-12], [TWO_PI + 1e-12]])


def _su2_elements(phi: list, theta: list, psi: list) -> list[SU2Element]:
    """``SU2Element(phi[i], theta[i], psi[i])`` for each i of three lists of
    floats, with the range checks run once over their (3, N) stack (NaN and
    Inf fail them too); the first element that fails raises ``SU2Element``'s
    own ``BadElement``.  The elements hold the lists' float objects, so a
    value repeated by reference is stored once."""
    angles = np.array((phi, theta, psi))
    ok = (angles >= _SU2_LOW) & (angles <= _SU2_HIGH)
    if not ok.all():
        i = int(np.argmin(ok.all(axis=0)))
        SU2Element(phi[i], theta[i], psi[i])
    elements = []
    for a, b, c in zip(phi, theta, psi):
        g = object.__new__(SU2Element)
        object.__setattr__(g, "phi", a)
        object.__setattr__(g, "theta", b)
        object.__setattr__(g, "psi", c)
        elements.append(g)
    return elements


GroupElement = FiniteElement | U1Element | SU2Element | SU3Element

_ELEMENT_KIND = {FiniteElement: "finite", U1Element: "u1", SU2Element: "su2", SU3Element: "su3"}


def check_membership(group: GroupDescriptor, g: GroupElement) -> None:
    kind = _ELEMENT_KIND.get(type(g))
    if kind is None or kind != group.kind:
        raise BadElement(f"element {g!r} does not belong to a {group.kind} group")
    if isinstance(g, FiniteElement) and g.index >= group.order:
        raise BadElement(f"index {g.index} out of range for group of order {group.order}")


def _check_members(group: GroupDescriptor, elements: Sequence[GroupElement]) -> None:
    """``check_membership`` of every element, in one pass over their types
    (and, for a finite group, their indices); the per-element check runs only
    to raise its message."""
    kinds = {_ELEMENT_KIND.get(t) for t in set(map(type, elements))}
    if kinds <= {group.kind} and not (
        isinstance(group, FiniteGroup)
        and max((g.index for g in elements), default=-1) >= group.order
    ):
        return
    for g in elements:
        check_membership(group, g)


def identity_element(group: GroupDescriptor) -> GroupElement:
    if isinstance(group, FiniteGroup):
        return FiniteElement(group.identity)
    if group.kind == "u1":
        return U1Element(0.0)
    if group.kind == "su2":
        return SU2Element(0.0, 0.0, 0.0)
    return SU3Element(np.eye(3))


def su2_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    zl = np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    zr = np.array([np.exp(0.5j * psi), np.exp(-0.5j * psi)])
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return (zl[:, None] * ry) * zr[None, :]


_TWO_SIGNS = np.array([2.0, -2.0])


def _euler_angles(U: np.ndarray) -> tuple[list, list, list]:
    """The lists phi, theta, psi of the Euler angles of the (N, 2, 2) stack
    of special unitaries U (exact reconstruction).  With a = U[0, 0]
    and b = U[1, 0]: theta = 2 atan2(|b|, |a|) clamped to [0, pi],
    s = 2 arg a (0 if |a| <= 1e-14), r = -2 arg b (0 if |b| <= 1e-14),
    phi = (s + r)/2, psi = (s - r)/2.  The moduli and theta stay scalar
    (builtin ``abs``, ``math.atan2``), since numpy's array abs and arctan2
    are not bitwise their scalar forms; the array ``np.angle`` is."""
    column = U[:, :, 0]
    moduli = [(abs(a), abs(b)) for a, b in column.tolist()]
    theta = [min(max(2.0 * math.atan2(b, a), 0.0), math.pi) for a, b in moduli]
    s, r = np.where(np.array(moduli) > 1e-14, np.angle(column) * _TWO_SIGNS, 0.0).T
    return ((s + r) / 2.0).tolist(), theta, ((s - r) / 2.0).tolist()


def euler_from_su2(U) -> SU2Element:
    """Euler angles of a 2x2 special-unitary matrix: ``_euler_angles`` of one."""
    U = as_matrix(U, "SU(2) matrix")
    if U.shape != (2, 2):
        raise DimensionMismatch(f"SU(2) matrix must be 2x2, got shape {U.shape}")
    return _su2_elements(*_euler_angles(U[None]))[0]


def compose(group: GroupDescriptor, g: GroupElement, h: GroupElement) -> GroupElement:
    """The product gh in the given group."""
    check_membership(group, g)
    check_membership(group, h)
    if isinstance(group, FiniteGroup):
        return FiniteElement(int(group.table[g.index, h.index]))
    if group.kind == "u1":
        return U1Element((g.theta + h.theta) % TWO_PI)
    if group.kind == "su2":
        return euler_from_su2(
            su2_matrix(g.phi, g.theta, g.psi) @ su2_matrix(h.phi, h.theta, h.psi)
        )
    return SU3Element(g.matrix @ h.matrix)


def inverse_element(group: GroupDescriptor, g: GroupElement) -> GroupElement:
    check_membership(group, g)
    if isinstance(group, FiniteGroup):
        return FiniteElement(int(group._inverses[g.index]))
    if group.kind == "u1":
        return U1Element((-g.theta) % TWO_PI)
    if group.kind == "su2":
        return euler_from_su2(su2_matrix(g.phi, g.theta, g.psi).conj().T)
    return SU3Element(g.matrix.conj().T)


def finite_elements(group: FiniteGroup) -> list[FiniteElement]:
    return [FiniteElement(i) for i in range(group.order)]


def describe_element(g: GroupElement) -> dict:
    """JSON-able parameters of an element, for reproducible reports."""
    if isinstance(g, FiniteElement):
        return {"kind": "finite", "index": g.index}
    if isinstance(g, U1Element):
        return {"kind": "u1", "theta": g.theta}
    if isinstance(g, SU2Element):
        return {"kind": "su2", "phi": g.phi, "theta": g.theta, "psi": g.psi}
    return {"kind": "su3", "matrix": matrix_to_json(g.matrix)}


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class UnitaryRep:
    """A concrete unitary representation: a group plus its one matrix
    function, ``stack_fn``, from a batch of N elements to their (N, d, d)
    matrices.  ``matrix_fn(g)`` is ``stack_fn`` on a batch of one, so the
    two cannot disagree."""

    group: GroupDescriptor
    dim: int
    stack_fn: Callable[[Sequence[GroupElement]], np.ndarray]
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def matrix_fn(self, g: GroupElement) -> np.ndarray:
        return self.stack_fn((g,))[0]


# matrices per stacked LAPACK call or validation pass: large enough to
# amortise per-call overhead, small enough that a batch of d = 8 matrices
# takes 256 KB, so batching adds no full-size temporaries
BATCH = 256


def element_unitaries(rep: UnitaryRep, elements: Sequence[GroupElement]) -> np.ndarray:
    """The (N, d, d) stack of U(g) for g in elements, each validated to
    1e-10.  Per chunk of ``BATCH`` elements: membership, in one pass; the
    matrices from one ``rep.stack_fn`` call, whose shape must be the
    chunk's (a wrong matrix shape is named, else the wrong count); unitarity
    and unit determinant."""
    d = rep.dim
    special = rep.group.kind in ("su2", "su3")
    out = np.empty((len(elements), d, d), dtype=complex)
    for start in range(0, len(elements), BATCH):
        chunk = out[start : start + BATCH]
        batch = elements[start : start + BATCH]
        _check_members(rep.group, batch)
        mats = np.asarray(rep.stack_fn(batch))
        if mats.shape != chunk.shape:
            got, expected = ((mats.shape[1:], chunk.shape[1:])
                             if mats.shape[:1] == chunk.shape[:1] else (mats.shape, chunk.shape))
            raise DimensionMismatch(f"representation produced shape {got}, expected {expected}")
        chunk[...] = mats
        gram = chunk.conj().transpose(0, 2, 1) @ chunk - np.eye(d)
        if np.any(np.linalg.norm(gram, "fro", axis=(1, 2)) > 1e-10):
            raise ValueError(f"representation {rep.name!r} produced a non-unitary matrix")
        if special and np.any(np.abs(np.linalg.det(chunk) - 1.0) > 1e-10):
            raise ValueError(f"representation {rep.name!r} lost the unit determinant")
    return out


def element_unitary(rep: UnitaryRep, g: GroupElement) -> np.ndarray:
    """The representing unitary U(g): ``element_unitaries`` of one element."""
    return element_unitaries(rep, (g,))[0]


def act(rep: UnitaryRep, g: GroupElement, A) -> np.ndarray:
    """Gauge automorphism A -> U(g) A U(g)^dag."""
    A = as_matrix(A)
    if A.shape[0] != rep.dim:
        raise DimensionMismatch(f"operator dim {A.shape[0]} != representation dim {rep.dim}")
    U = element_unitary(rep, g)
    return U @ A @ U.conj().T


def _validate_rep(rep: UnitaryRep) -> UnitaryRep:
    """Check U(e) = I and the homomorphism on one stack of unitaries: the
    whole Cayley table of a finite group; for a Lie group
    U(g_i) U(h_i) = U(g_i h_i) on two seeded Haar pairs."""
    group = rep.group
    if isinstance(group, FiniteGroup):
        e, elements = group.identity, finite_elements(group)
    else:
        g1, g2, h1, h2 = haar_sample(rep, rng_seed=0x5EED, count=4)
        e, elements = 0, [identity_element(group), g1, g2, h1, h2,
                          compose(group, g1, h1), compose(group, g2, h2)]
    mats = element_unitaries(rep, elements)
    if frobenius(mats[e] - np.eye(rep.dim)) > 1e-10:
        raise ValueError(f"representation {rep.name!r} does not map identity to identity")
    if isinstance(group, FiniteGroup):
        # row g of the table at once: U_g U_h - U_{gh} for every h
        for g, row in enumerate(group.table):
            broken = np.linalg.norm(mats[g] @ mats - mats[row], axis=(1, 2)) > 1e-10
            if broken.any():
                h = np.argmax(broken)
                raise ValueError(
                    f"representation {rep.name!r} breaks the homomorphism at "
                    f"({group.labels[g]}, {group.labels[h]})"
                )
    elif np.any(np.linalg.norm(mats[1:3] @ mats[3:5] - mats[5:], axis=(1, 2)) > 1e-9):
        raise ValueError(f"representation {rep.name!r} breaks the homomorphism")
    return rep


def _positive_dim(dim: int) -> int:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return dim


def _integer_weights(weights: Sequence[int]) -> tuple[int, ...]:
    """The weights as ints: at least one, each an integer and not a bool."""
    weights = tuple(weights)
    if not weights:
        raise ValueError("need at least one weight")
    for w in weights:
        if isinstance(w, bool) or not isinstance(w, numbers.Integral):
            raise ValueError(f"weights must be integers, got {w!r}")
    return tuple(int(w) for w in weights)


def _diagonal_stack(diagonals: np.ndarray) -> np.ndarray:
    """The (N, d, d) stack of diagonal matrices whose diagonals are the rows."""
    n, d = diagonals.shape
    out = np.zeros((n, d, d), dtype=complex)
    out[:, np.arange(d), np.arange(d)] = diagonals
    return out


def u1_rep(weights: Sequence[int], name: str = "") -> UnitaryRep:
    """Diagonal U(1) representation with integer weights: theta -> diag(e^{i w theta})."""
    win = _integer_weights(weights)
    iw = 1j * np.asarray(win, dtype=float)

    def fn(batch):
        return _diagonal_stack(np.exp(iw * np.array([g.theta for g in batch])[:, None]))

    return _validate_rep(UnitaryRep(U1, len(win), fn, name or f"u1{win}", meta={"weights": win}))


def su2_fundamental() -> UnitaryRep:
    # su2_matrix per element: math.cos/math.sin need not match np.cos/np.sin on arrays bitwise
    return _validate_rep(UnitaryRep(
        SU2, 2, lambda batch: np.array([su2_matrix(g.phi, g.theta, g.psi) for g in batch]),
        "su2-fund"))


def _spin_jy(dim: int) -> np.ndarray:
    # standard J_y of spin j = (dim-1)/2 in the basis m = j, j-1, ..., -j
    j = (dim - 1) / 2.0
    m = j - np.arange(1, dim)
    jplus = np.diag(np.sqrt(j * (j + 1.0) - m * (m + 1.0)), 1)
    return (jplus - jplus.T) / 2j


def su2_irrep(dim: int) -> UnitaryRep:
    """Irreducible SU(2) representation of the given dimension (>= 2).

    Spin j = (dim-1)/2 in closed form, in the basis and sign convention of
    U^{otimes (dim-1)} restricted to the symmetric subspace:
    diag(e^{i m phi}) . V diag(e^{-i theta w}) V^dag . diag(e^{i m psi}) with
    m = j, ..., -j and J_y = V diag(w) V^dag diagonalized once.  dim = 2 is
    the fundamental.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if dim == 2:
        return su2_fundamental()
    w, V = np.linalg.eigh(_spin_jy(dim))
    # the spectrum of J_y is exactly j, ..., -j
    w = np.round(2.0 * w) / 2.0
    m = (dim - 1) / 2.0 - np.arange(dim)
    Vh = V.conj().T

    def fn(batch):
        # each angle as an (N, 1) column
        phi, theta, psi = np.array([(g.phi, g.theta, g.psi) for g in batch]).T[:, :, None]
        ry = (V * np.exp(-1j * theta * w)[:, None, :]) @ Vh
        return np.exp(1j * phi * m)[:, :, None] * ry * np.exp(1j * psi * m)[:, None, :]

    return _validate_rep(UnitaryRep(SU2, dim, fn, f"su2-sym{dim - 1}"))


def su3_fundamental() -> UnitaryRep:
    return _validate_rep(
        UnitaryRep(SU3, 3, lambda batch: np.array([g.matrix for g in batch]), "su3-fund"))


def _symmetric_isometry_pairs(n: int) -> np.ndarray:
    cols = []
    for i in range(n):
        for j in range(i, n):
            v = np.zeros(n * n)
            if i == j:
                v[i * n + j] = 1.0
            else:
                v[i * n + j] = v[j * n + i] = 1.0 / math.sqrt(2.0)
            cols.append(v)
    return np.array(cols).T


def su3_rep(dim: int) -> UnitaryRep:
    """An SU(3) representation of the given dimension (3..6).

    3 is the fundamental, 6 its symmetric square S^T (M kron M) S; 4 and 5
    pad the fundamental with a trivial block.
    """
    if dim == 3:
        return su3_fundamental()
    if dim in (4, 5):
        def fn(batch):
            M = np.array([g.matrix for g in batch])
            U = np.zeros((len(M), dim, dim), dtype=complex)
            U[:, :3, :3] = M
            U[:, 3:, 3:] = np.eye(dim - 3)
            return U

        return _validate_rep(UnitaryRep(SU3, dim, fn, f"su3-fund+{dim - 3}"))
    if dim == 6:
        S = _symmetric_isometry_pairs(3)

        def fn6(batch):
            M = np.array([g.matrix for g in batch])
            # M kron M for each matrix of the stack, first factor slowest
            K = (M[:, :, None, :, None] * M[:, None, :, None, :]).reshape(len(M), 9, 9)
            return S.T @ K @ S

        return _validate_rep(UnitaryRep(SU3, 6, fn6, "su3-sym2"))
    raise ValueError(f"no built-in SU(3) representation of dimension {dim}")


def trivial_rep(group: GroupDescriptor, dim: int, name: str = "") -> UnitaryRep:
    eye = np.eye(_positive_dim(dim), dtype=complex)
    return UnitaryRep(group, dim, lambda batch: np.broadcast_to(eye, (len(batch), dim, dim)),
                      name or f"trivial{dim}")


def finite_rep(group: FiniteGroup, matrices: Sequence, name: str = "") -> UnitaryRep:
    """Representation of a finite group from one matrix per element, kept as
    one read-only (|G|, d, d) table indexed by element."""
    matrices = list(matrices)
    if len(matrices) != group.order:
        raise ValueError(f"expected {group.order} matrices, got {len(matrices)}")
    mats = [as_matrix(M, f"matrix for {label}") for label, M in zip(group.labels, matrices)]
    d = mats[0].shape[0]
    if any(M.shape[0] != d for M in mats):
        raise ValueError("representation matrices have mixed dimensions")
    table = np.array(mats)
    table.setflags(write=False)
    return _validate_rep(UnitaryRep(group, d, lambda batch: table[[g.index for g in batch]],
                                    name or "finite-rep"))


def direct_sum_rep(*reps: UnitaryRep, name: str = "") -> UnitaryRep:
    """Block-diagonal direct sum of representations of one group."""
    if not reps:
        raise ValueError("need at least one representation")
    group = reps[0].group
    if any(r.group != group for r in reps):
        raise ValueError("direct sum requires a common group")
    total = sum(r.dim for r in reps)

    def fn(batch):
        U = np.zeros((len(batch), total, total), dtype=complex)
        at = 0
        for r in reps:
            U[:, at : at + r.dim, at : at + r.dim] = r.stack_fn(batch)
            at += r.dim
        return U

    return _validate_rep(UnitaryRep(group, total, fn, name or "+".join(r.name for r in reps)))


# ---------------------------------------------------------------------------
# built-in finite groups


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(tuple(str(i) for i in range(n)), table, 0)


def cyclic_rep(n: int, dim: int | None = None, weights: Sequence[int] | None = None) -> UnitaryRep:
    """Diagonal representation of Z_n by n-th roots of unity.

    Element j acts as diag(omega^{j w_1}, ..., omega^{j w_d}); the integer
    weights default to (0, 1, ..., d-1), with d = dim (at least 1) or n.
    """
    group = cyclic_group(n)
    if weights is None:
        weights = range(n if dim is None else _positive_dim(dim))
    w = np.array(_integer_weights(weights))
    # row j holds (j w_k) mod n
    phases = (np.arange(n)[:, None] * w) % n
    return finite_rep(group, _diagonal_stack(np.exp(2j * math.pi * phases / n)), f"z{n}-diag")


_Q8_MATS = {
    "1": np.eye(2, dtype=complex),
    "i": np.array([[1j, 0], [0, -1j]]),
    "j": np.array([[0, 1], [-1, 0]], dtype=complex),
    "k": np.array([[0, 1j], [1j, 0]]),
}


def _q8_matrices() -> np.ndarray:
    """The (8, 2, 2) stack 1, -1, i, -i, j, -j, k, -k."""
    return np.array([M for s in ("1", "i", "j", "k") for M in (_Q8_MATS[s], -_Q8_MATS[s])])


def quaternion_group() -> FiniteGroup:
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    mats = _q8_matrices()
    # matches[a, b, c]: g_a g_b equals g_c entrywise as np.allclose(atol=1e-12) decides
    prods = mats[:, None] @ mats[None]
    matches = np.isclose(prods[:, :, None], mats, atol=1e-12).all(axis=(3, 4))
    if not np.all(matches.sum(axis=2) == 1):
        raise ValueError("Q8 matrices do not match each product exactly once")
    return FiniteGroup(labels, np.argmax(matches, axis=2), 0)


def quaternion_rep(total_dim: int = 2) -> UnitaryRep:
    """The 2x2 representation of Q8 inside SU(2), optionally padded/summed to
    a larger dimension (copies of the 2x2 block plus trivial padding)."""
    copies, pad = divmod(_positive_dim(total_dim), 2)
    group = quaternion_group()
    base = finite_rep(group, _q8_matrices(), "q8-2d")
    if total_dim == 2:
        return base
    parts = [base] * copies + ([trivial_rep(group, pad)] if pad else [])
    return direct_sum_rep(*parts, name=f"q8-{total_dim}d")


def product_group(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with index (i, j) -> i * |b| + j."""
    na, nb = a.order, b.order
    labels = tuple(f"{la}|{lb}" for la in a.labels for lb in b.labels)
    # row (i1, j1), column (i2, j2) holds a[i1, i2] * nb + b[j1, j2]
    table = (a.table[:, None, :, None] * nb + b.table[None, :, None, :]).reshape(na * nb, -1)
    return FiniteGroup(labels, table, a.identity * nb + b.identity)


def product_rep(ra: UnitaryRep, rb: UnitaryRep) -> UnitaryRep:
    """Outer tensor product of two finite-group representations on the
    product group, U(g1, g2) = U1(g1) kron U2(g2)."""
    if not (isinstance(ra.group, FiniteGroup) and isinstance(rb.group, FiniteGroup)):
        raise ValueError("product_rep is defined for finite groups")
    A = element_unitaries(ra, finite_elements(ra.group))
    B = element_unitaries(rb, finite_elements(rb.group))
    # entry [i * |b| + j] is A_i kron B_j, first factor's index slowest
    table = (A[:, None, :, None, :, None] * B[None, :, None, :, None, :]).reshape(
        len(A) * len(B), ra.dim * rb.dim, ra.dim * rb.dim)
    return finite_rep(product_group(ra.group, rb.group), table, f"({ra.name})x({rb.name})")


# ---------------------------------------------------------------------------
# Haar sampling and quadrature


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG stream; streams with distinct (seed, stream) keys are
    independent, so per-sample streams commute with execution order."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed special unitary: Ginibre matrix, QR,
    phase-normalized R diagonal, divided by the principal n-th root of det."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)


# Generators that _philox_streams re-keys, kept between calls (a new Philox
# costs more than a small batch's Euler step); a list, so nested or
# concurrent stream users each take their own
_SPARE_RNGS: list[np.random.Generator] = []


def _philox_streams(seed: int, count: int):
    """Yield a Generator in the state of ``philox_stream(seed, i)`` for
    i = 0..count-1: one Philox re-keyed in place, counter and buffers reset,
    instead of a new generator per stream.  Each yield invalidates the last.
    The state is one dict of plain ints, only its key's stream word changing,
    which the setter reads three times faster than uint64 arrays."""
    try:
        rng = _SPARE_RNGS.pop()
    except IndexError:
        rng = np.random.Generator(np.random.Philox(0))
    key = [seed % 2**64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    try:
        for i in range(count):
            key[1] = i % 2**64
            rng.bit_generator.state = state
            yield rng
    finally:
        _SPARE_RNGS.append(rng)


def _haar_special_unitaries(n: int, seed: int, count: int) -> np.ndarray:
    """The (count, n, n) stack of ``haar_unitary(n, philox_stream(seed, i))``,
    bitwise, filled in place.  Per batch of ``BATCH`` samples, the one call
    per sample is its draw: each stream fills its real and imaginary Ginibre
    parts in order with one ``standard_normal`` into a real buffer.  The rest
    runs stacked: QR and det (LAPACK factors each matrix on its own), the
    R-diagonal phase fix, and the det phase, with array ``np.angle``, the
    scalar expression -1j a / n per sample, one ``np.exp`` and one broadcast
    multiply, each bitwise its per-sample form."""
    out = np.empty((count, n, n), dtype=complex)
    normals = np.empty((min(count, BATCH), 2, n, n))
    streams = _philox_streams(seed, count)
    for start in range(0, count, BATCH):
        z = out[start : start + BATCH]
        ginibre = normals[: len(z)]
        for draw, rng in zip(ginibre, streams):
            rng.standard_normal(out=draw)
        z.real = ginibre[:, 0]
        z.imag = ginibre[:, 1]
        z /= math.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        q *= np.where(np.abs(d) > 0, d / np.abs(d), 1.0)[:, None, :]
        phase = np.exp([-1j * a / n for a in np.angle(np.linalg.det(q)).tolist()])
        np.multiply(q, phase[:, None, None], out=z)
    return out


def haar_sample(rep: UnitaryRep, rng_seed: int, count: int) -> list[GroupElement]:
    """Sample group elements from Haar measure (finite groups: uniform).

    Sample i is drawn from ``philox_stream(rng_seed, i)`` alone, so
    ``haar_sample(rep, s, n)[:k] == haar_sample(rep, s, k)``; SU(2) and SU(3)
    samples are bitwise ``haar_unitary`` of that stream, computed in stacks
    by ``_haar_special_unitaries``.  SU(2) samples become elements in one
    stacked Euler step (``_euler_angles``, ``_su2_elements``), bitwise
    ``euler_from_su2`` of each; SU(3) samples are checked once, in chunks of
    ``BATCH`` of one stack.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    group = rep.group
    if isinstance(group, FiniteGroup):
        return [FiniteElement(int(rng.integers(group.order)))
                for rng in _philox_streams(rng_seed, count)]
    if group.kind == "u1":
        return [U1Element(float(rng.uniform(0.0, TWO_PI)))
                for rng in _philox_streams(rng_seed, count)]
    if group.kind == "su2":
        # in chunks, so the Euler step's Python floats stay few at a time
        stack = _haar_special_unitaries(2, rng_seed, count)
        return [g for start in range(0, count, BATCH)
                for g in _su2_elements(*_euler_angles(stack[start : start + BATCH]))]
    stack = _haar_special_unitaries(3, rng_seed, count)
    for start in range(0, count, BATCH):
        _check_su3(stack[start : start + BATCH])
    return _su3_elements(stack)


@functools.lru_cache(maxsize=16)
def su2_quadrature_nodes(order: int) -> tuple[tuple[SU2Element, ...], np.ndarray]:
    """Elements and read-only weights of the SU(2) product rule of this
    order, in (phi, theta, psi) loop order with psi fastest; weight w_phi *
    w_theta * w_psi.  J = (order-1)/2: trapezoid in phi on [0, 2pi),
    floor(J)+1 nodes; Gauss-Legendre in cos(theta), ceil((floor(J)+1)/2);
    psi on [0, 4pi), 2J+1.  Built once per order by ``_su2_elements`` and
    cached for the 16 orders last used (O(order^3) nodes each)."""
    if order < 4:
        raise ValueError("order must be >= 4")
    n_phi, n_psi = (order + 1) // 2, order
    x, w_theta = leggauss((n_phi + 1) // 2)
    psis = 2.0 * TWO_PI * np.arange(n_psi) / n_psi
    # e^{i psi/2} has period 4pi; fold [0, 4pi) into [-2pi, 2pi]
    psis = np.where(psis > TWO_PI, psis - 2.0 * TWO_PI, psis).tolist()
    phis, thetas = (TWO_PI * np.arange(n_phi) / n_phi).tolist(), np.arccos(x).tolist()
    n_theta = len(thetas)
    # the grid by reference, so each distinct angle is one float object
    elements = tuple(_su2_elements([phi for phi in phis for _ in range(n_theta * n_psi)],
                                   [theta for _ in phis for theta in thetas for _ in psis],
                                   psis * (n_phi * n_theta)))
    w = TWO_PI / n_phi * w_theta * (2.0 * TWO_PI / n_psi)
    weights = np.tile(np.repeat(w, n_psi), n_phi)
    weights.setflags(write=False)
    return elements, weights


def haar_quadrature_su2(f: Callable[[SU2Element], np.ndarray], order: int) -> np.ndarray:
    """Integrate a matrix-valued function over SU(2) Haar measure: the
    ``weighted_mean`` of f over ``su2_quadrature_nodes(order)`` in chunks of
    ``BATCH`` nodes, exact for every matrix coefficient of spin
    J <= (order-1)/2.  Spin-J coefficients are e^{i m phi} d^J_{mm'}(theta)
    e^{i m' psi}: the psi sum removes m' != 0, the phi sum then m != 0, and
    d^J_{00}(theta) = P_J(cos theta) is a polynomial of degree J that the
    Gauss-Legendre rule integrates exactly.  Deterministic."""
    return weighted_mean(lambda chunk: np.array([f(el) for el in chunk], dtype=complex),
                         *su2_quadrature_nodes(order), BATCH)


def rep_from_config(doc: dict) -> UnitaryRep:
    """Build a representation from a JSON-able config block.

    Recognized kinds: {"kind": "su2", "dim": d}, {"kind": "su3", "dim": d},
    {"kind": "u1", "weights": [...]}, {"kind": "zn", "n": n, "dim": d},
    {"kind": "q8", "dim": d}, and {"kind": "finite", "group": <Cayley doc
    with a rep block>}.  dim, n and weights must be JSON integers and dim at
    least 1; anything else raises ValueError.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("rep config must be an object with a 'kind' field")
    kind = doc["kind"]

    def checked_dim(default):
        return _positive_dim(int_from_json(doc.get("dim", default), "dim"))

    try:
        if kind == "su2":
            rep = su2_irrep(checked_dim(2))
        elif kind == "su3":
            rep = su3_rep(checked_dim(3))
        elif kind == "u1":
            rep = u1_rep([int_from_json(w, "weight") for w in doc["weights"]])
        elif kind == "zn":
            n = int_from_json(doc["n"], "n")
            if n < 1:
                raise ValueError(f"n must be >= 1, got {n}")
            rep = cyclic_rep(n, dim=checked_dim(n))
        elif kind == "q8":
            rep = quaternion_rep(checked_dim(2))
        elif kind == "finite":
            _, rep = finite_group_from_json(doc["group"])
            if rep is None:
                raise ValueError("finite rep config needs a 'rep' block in the group document")
        else:
            raise ValueError(f"unknown rep kind {kind!r}")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed rep config: {exc}") from exc
    return rep


# ---------------------------------------------------------------------------
# JSON Cayley-table documents


def finite_group_to_json(group: FiniteGroup, rep: UnitaryRep | None = None) -> dict:
    doc = {
        "labels": list(group.labels),
        "table": [[int(v) for v in row] for row in group.table],
        "identity": int(group.identity),
    }
    if rep is not None:
        if rep.group != group:
            raise ValueError("representation belongs to a different group")
        doc["rep"] = {
            "dim": rep.dim,
            "matrices": [
                matrix_to_json(U) for U in element_unitaries(rep, finite_elements(group))
            ],
        }
    return doc


def finite_group_from_json(doc: dict) -> tuple[FiniteGroup, UnitaryRep | None]:
    """Parse {"labels", "table", "identity", optional "rep"}; raises
    ValueError on any malformed or inconsistent field."""
    if not isinstance(doc, dict):
        raise ValueError("group document must be a JSON object")
    try:
        labels = tuple(str(s) for s in doc["labels"])
        n = len(labels)
        table = np.array([[int_from_json(v, "table entry", n) for v in row]
                          for row in doc["table"]], dtype=int)
        identity = int_from_json(doc["identity"], "identity", n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed group document: {exc}") from exc
    group = FiniteGroup(labels, table, identity)
    rep = None
    if "rep" in doc and doc["rep"] is not None:
        rdoc = doc["rep"]
        try:
            dim = int_from_json(rdoc["dim"], "rep dim")
            mats = [matrix_from_json(m, "rep matrix") for m in rdoc["matrices"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed rep block: {exc}") from exc
        if any(M.shape != (dim, dim) for M in mats):
            raise ValueError("rep matrices disagree with the declared dimension")
        rep = finite_rep(group, mats, "json-rep")
    return group, rep
