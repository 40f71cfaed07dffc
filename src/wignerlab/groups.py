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

Elements are batches (``ElementBatch``), one read-only array per group
kind: finite indices (N,), U(1) angles (N,), SU(2) Euler angles (N, 3),
SU(3) matrices (N, 3, 3), each kind's range check defined once on its
batch.  ``identity``, ``compose`` and ``inverse`` act on batches.  The
element classes (``SU2Element`` and the rest) view one row: a batch yields
them unchecked, and constructing one, or a batch, runs the check; only
checked rows and ``haar_sample``'s kernel output enter a batch by ``_checked``.

Haar integrals over SU(2) use a product rule in Euler coordinates that is
exact for every matrix coefficient of spin J <= (order-1)/2: trapezoid rules
in phi and psi, Gauss-Legendre in cos(theta), O(J) nodes each
(``su2_axis_rules``) and O(J^3) in their product (``su2_quadrature_nodes``,
which ``haar_quadrature_su2`` sums in node order with ``weighted_mean``).
Both are built once per order and cached (read-only).  U^dag rho U for a
d-dimensional representation has spin at most d-1, so order 2d-1 averages
it exactly; since U = U(phi, 0, 0) U(0, theta, 0) U(0, 0, psi) and the
weights are products, ``states.haar_average`` applies the three 1-D rules
in turn, phi first, with O(d) conjugations instead of O(d^3).

Haar sampling orthonormalizes a Ginibre matrix's columns in order, which
is its QR factor with R's diagonal real and positive, then divides by the
principal n-th root of the determinant for the special groups (Mezzadri,
Notices AMS 54, 2007).  All randomness flows through Philox counter
streams keyed by (seed, stream index): sample i of
``haar_sample(rep, seed, count)`` is drawn from stream (seed, i) alone, so
sampling is reproducible, order-independent and prefix-stable.  A batch
re-keys one Philox in place per sample instead of building a generator per
stream; each sample's one call is its draw.  One kernel,
``_special_unitaries``, turns a stack of Ginibre matrices into samples:
Gram-Schmidt with each column projected twice, then the determinant phase,
all on stacks of ``BATCH`` matrices.  ``haar_unitary`` is it on a stack of
one, so sample i is bitwise ``haar_unitary(n, philox_stream(seed, i))``.
SU(2) samples become Euler angles in one stacked step, except theta, which
stays scalar to keep its bits; SU(3) samples are the stack itself.
``haar_families`` draws many seeds' samples as one such stack.

Every representation has one matrix function, ``UnitaryRep.stack_fn``, on
batches; ``element_unitaries`` is the one place where elements become
validated unitaries, a chunk per call.  Every built-in Lie group rep also
carries the image of its group's Lie algebra in closed form
(``UnitaryRep.lie_algebra``): J_z = diag(m) and J_y for SU(2), the
Gell-Mann lambda_k / 2 carried through the rep for SU(3), diag(weights) for
U(1).  A connected group is generated by the exponentials of its Lie
algebra, so these few Hermitian matrices decide commutants and invariance
with no Haar sample; ``_validate_rep`` checks that they exponentiate to the
rep's matrices.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .matrixcore import (DimensionMismatch, _norms, as_matrix, frobenius, int_from_json,
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


def generating_set(group: FiniteGroup) -> FiniteBatch:
    """A generating set, greedily: repeatedly add the first element outside
    the subgroup generated so far.  Each addition at least doubles that
    subgroup, so there are at most log2 |G| elements (1 for Z_n, 3 for Q8,
    none for the trivial group)."""
    return FiniteBatch(np.array(_generating_indices(group.table, group.identity), int))


# ---------------------------------------------------------------------------
# group elements: each class views one row of its kind's batch, and
# constructing one runs that batch's check


@dataclass(frozen=True)
class FiniteElement:
    index: int

    def __post_init__(self):
        FiniteBatch._check(np.array([operator.index(self.index)]))


@dataclass(frozen=True)
class U1Element:
    theta: float

    def __post_init__(self):
        U1Batch._check(np.array([self.theta], float))


@dataclass(frozen=True)
class SU2Element:
    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        SU2Batch._check(np.array([[self.phi, self.theta, self.psi]], float))


@dataclass(frozen=True, eq=False)
class SU3Element:
    matrix: np.ndarray

    def __eq__(self, other):
        return isinstance(other, SU3Element) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __post_init__(self):
        M = as_matrix(self.matrix, "SU(3) element").copy()
        SU3Batch._check(M[None])
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)


def _det3(M: np.ndarray) -> np.ndarray:
    """Determinants of the (N, 3, 3) stack M by cofactor expansion (cheaper than LAPACK)."""
    (a, b, c), (d, e, f), (g, h, i) = M.transpose(1, 2, 0)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# the SU(2) range as bounds on the columns phi, theta, psi
_SU2_LOW = np.array([-(TWO_PI + 1e-12), -1e-12, -(TWO_PI + 1e-12)])
_SU2_HIGH = np.array([TWO_PI + 1e-12, math.pi + 1e-12, TWO_PI + 1e-12])


class ElementBatch(Sequence):
    """N elements of one group kind as one read-only array, copied and
    checked once by the kind's range rule ``_ok``: the first row that fails
    raises the kind's ``message``.  ``len``, slices (batches) and ``==`` act
    on the array; iterating, or indexing one row, yields unchecked views."""

    shape: tuple = ()
    # the rows as lists of the element's fields
    _values = lambda self, array: array.reshape(-1, *self.shape or (1,)).tolist()

    def __init__(self, array):
        array = np.asarray(array).astype(self.dtype, casting="same_kind")
        if array.ndim == 0 or array.shape[1:] != self.shape:
            raise BadElement(f"a {self.kind} batch needs rows of shape {self.shape}, got {array.shape}")
        self._check(array)
        array.setflags(write=False)
        self.array = array

    @classmethod
    def _checked(cls, rows):
        batch = object.__new__(cls)
        batch.array = np.asarray(rows, cls.dtype).reshape(-1, *cls.shape)
        batch.array.setflags(write=False)
        return batch

    @classmethod
    def _check(cls, array):
        if not (ok := cls._ok(array)).all():
            raise BadElement(cls.message.format(*np.ravel(array[np.argmin(ok)]).tolist()))

    def _row(self, values) -> GroupElement:
        g = object.__new__(self.element)
        vars(g).update(zip(self.element.__match_args__, values))
        return g

    def __len__(self):
        return len(self.array)

    def __iter__(self):
        return map(self._row, self._values(self.array))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._checked(self.array[i])
        return self._row(self._values(self.array[i][None])[0])

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.array, other.array)

    def describe(self) -> list[dict]:
        """Each row's fields from the array's ``tolist``, JSON-able for reports."""
        return [{"kind": self.kind, **vars(g)} for g in self]


class FiniteBatch(ElementBatch):
    kind, element, dtype = "finite", FiniteElement, int
    message = "negative element index {}"
    _ok = staticmethod(lambda index: index >= 0)
    # the group operations on the rows' arrays, here the group's tables
    _unit = staticmethod(lambda group: [group.identity])
    _times = staticmethod(lambda group, a, b: group.table[a, b])
    _inverse = staticmethod(lambda group, a: group._inverses[a])


class U1Batch(ElementBatch):
    kind, element, dtype = "u1", U1Element, float
    message = "U(1) angle must lie in [0, 2pi), got {}"
    # NaN fails both comparisons, and Inf the second
    _ok = staticmethod(lambda theta: (theta >= 0.0) & (theta < TWO_PI))
    _unit = staticmethod(lambda group: [0.0])
    _times = staticmethod(lambda group, a, b: (a + b) % TWO_PI)
    _inverse = staticmethod(lambda group, a: (TWO_PI - a) % TWO_PI)


class SU2Batch(ElementBatch):
    kind, element, dtype, shape = "su2", SU2Element, float, (3,)
    message = "Euler angles out of range: phi={} theta={} psi={}"
    _ok = staticmethod(lambda angles: ((angles >= _SU2_LOW) & (angles <= _SU2_HIGH)).all(axis=1))
    _unit = staticmethod(lambda group: [(0.0, 0.0, 0.0)])
    _times = staticmethod(lambda group, a, b: _euler_angles(_su2_matrices(a) @ _su2_matrices(b)))
    _inverse = staticmethod(lambda group, a: _euler_angles(_su2_matrices(a).conj().mT))


class SU3Batch(ElementBatch):
    kind, element, dtype, shape = "su3", SU3Element, complex, (3, 3)
    _values = staticmethod(lambda stack: stack)
    _unit = staticmethod(lambda group: [np.eye(3)])
    _times = staticmethod(lambda group, a, b: a @ b)
    _inverse = staticmethod(lambda group, a: a.conj().mT)

    @classmethod
    def _check(cls, stack):
        # finite and special unitary to 1e-10: ||M^dag M - I||_F and |det M - 1|
        if stack.shape[1:] != (3, 3):
            raise BadElement(f"SU(3) element must be 3x3, got {stack.shape[1:]}")
        for start in range(0, len(stack), BATCH):
            M = stack[start : start + BATCH]
            if not np.all(np.isfinite(M)):
                raise ValueError("SU(3) element contains NaN or Inf entries")
            gram = M.conj().transpose(0, 2, 1) @ M - np.eye(3)
            if np.any(_norms(gram, (1, 2)) > 1e-10):
                raise BadElement("SU(3) element is not unitary to 1e-10")
            if np.any(np.abs(_det3(M) - 1.0) > 1e-10):
                raise BadElement("SU(3) element determinant differs from 1 by more than 1e-10")

    def _row(self, row):
        # the element keeps its own read-only copy, not the whole stack
        g = object.__new__(SU3Element)
        object.__setattr__(g, "matrix", row.copy())
        g.matrix.setflags(write=False)
        return g

    def describe(self):
        return [{"kind": "su3", "matrix": matrix_to_json(M)} for M in self.array]


_BATCHES = {b.kind: b for b in (FiniteBatch, U1Batch, SU2Batch, SU3Batch)}

GroupElement = FiniteElement | U1Element | SU2Element | SU3Element


def element_batch(group: GroupDescriptor, elements) -> ElementBatch:
    """The elements, a batch or a sequence of single elements, as a batch of
    the group's kind, membership checked in one pass: the first element of
    another kind, else the first finite index outside the group, raises."""
    cls = _BATCHES[group.kind]
    if type(elements) is not cls:
        elements = list(elements)  # an iterator is read once
        for g in elements:
            if type(g) is not cls.element:
                raise BadElement(f"element {g!r} does not belong to a {group.kind} group")
        elements = cls._checked([tuple(vars(g).values()) for g in elements])
    if isinstance(group, FiniteGroup) and (outside := elements.array >= group.order).any():
        index = elements.array[np.argmax(outside)]
        raise BadElement(f"index {index} out of range for group of order {group.order}")
    return elements


def identity(group: GroupDescriptor) -> ElementBatch:
    """The group's identity, a batch of one."""
    cls = _BATCHES[group.kind]
    return cls(cls._unit(group))


def su2_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    zl = np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    zr = np.array([np.exp(0.5j * psi), np.exp(-0.5j * psi)])
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return (zl[:, None] * ry) * zr[None, :]


def _su2_matrices(angles: np.ndarray) -> np.ndarray:
    # su2_matrix per row: math.cos/math.sin need not match np.cos/np.sin on arrays bitwise
    return np.array([su2_matrix(*row) for row in angles.tolist()])


_TWO_SIGNS = np.array([2.0, -2.0])


def _euler_angles(U: np.ndarray) -> np.ndarray:
    """The (N, 3) rows phi, theta, psi of the Euler angles of the (N, 2, 2)
    stack of special unitaries U (exact reconstruction).  With a = U[0, 0]
    and b = U[1, 0]: theta = 2 atan2(|b|, |a|) clamped to [0, pi],
    s = 2 arg a (0 if |a| <= 1e-14), r = -2 arg b (0 if |b| <= 1e-14),
    phi = (s + r)/2, psi = (s - r)/2.  The moduli are ``np.hypot`` of the
    parts, bitwise builtin ``abs`` (numpy's array abs is not), and theta
    stays scalar ``math.atan2``, since the array arctan2 is not bitwise it;
    the array ``np.angle`` is bitwise its scalar form."""
    column = U[:, :, 0]
    moduli = np.hypot(column.real, column.imag)
    theta = [min(max(2.0 * math.atan2(b, a), 0.0), math.pi) for a, b in moduli.tolist()]
    s, r = np.where(moduli > 1e-14, np.angle(column) * _TWO_SIGNS, 0.0).T
    return np.column_stack(((s + r) / 2.0, theta, (s - r) / 2.0))


def compose(group: GroupDescriptor, a, b) -> ElementBatch:
    """The rowwise products a_i b_i of two batches (one row broadcasts): table
    lookups, angles mod 2pi for U(1), SU(2) matrices multiplied and read back
    by ``_euler_angles``, one matmul for SU(3); unequal lengths raise ValueError."""
    cls = _BATCHES[group.kind]
    a, b = element_batch(group, a).array, element_batch(group, b).array
    if len(a) != len(b) and 1 not in (len(a), len(b)):
        raise ValueError(f"cannot compose batches of {len(a)} and {len(b)} elements")
    return cls(cls._times(group, a, b))


def inverse(group: GroupDescriptor, a) -> ElementBatch:
    """The rowwise inverses, stacked as in ``compose``."""
    cls = _BATCHES[group.kind]
    return cls(cls._inverse(group, element_batch(group, a).array))


def finite_elements(group: FiniteGroup) -> FiniteBatch:
    return FiniteBatch(np.arange(group.order))


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class UnitaryRep:
    """A concrete unitary representation: a group plus its one matrix
    function, ``stack_fn``, from a batch of N elements to their (N, d, d)
    matrices.  ``matrix_fn(g)`` is ``stack_fn`` on a batch of one, so the
    two cannot disagree.

    ``lie_algebra`` is a Lie group rep's image of its Lie algebra: the
    read-only (k, d, d) Hermitian stack X_k with U(exp(i t xi_k)) =
    exp(i t X_k) for the group kind's generators xi_k (``_one_parameter``).
    It is None for a finite group, and for a Lie rep built without it."""

    group: GroupDescriptor
    dim: int
    stack_fn: Callable[[ElementBatch], np.ndarray]
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False)
    lie_algebra: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lie_algebra is not None:
            X = np.array(self.lie_algebra, dtype=complex)
            X.setflags(write=False)
            object.__setattr__(self, "lie_algebra", X)

    def matrix_fn(self, g: GroupElement) -> np.ndarray:
        return self.stack_fn(element_batch(self.group, (g,)))[0]


# matrices per stacked LAPACK call or validation pass: large enough to
# amortise per-call overhead, small enough that a batch of d = 8 matrices
# takes 256 KB, so batching adds no full-size temporaries
BATCH = 256


def element_unitaries(rep: UnitaryRep, elements) -> np.ndarray:
    """The (N, d, d) stack of U(g) for g in elements, each validated to
    1e-10: membership once, by ``element_batch``; per chunk of ``BATCH``,
    the matrices from one ``rep.stack_fn`` call, whose shape must be the
    chunk's (a wrong matrix shape is named, else the wrong count), unitarity
    and unit determinant."""
    elements = element_batch(rep.group, elements)
    d = rep.dim
    special = rep.group.kind in ("su2", "su3")
    out = np.empty((len(elements), d, d), dtype=complex)
    for start in range(0, len(elements), BATCH):
        chunk = out[start : start + BATCH]
        mats = np.asarray(rep.stack_fn(elements[start : start + BATCH]))
        if mats.shape != chunk.shape:
            got, expected = ((mats.shape[1:], chunk.shape[1:])
                             if mats.shape[:1] == chunk.shape[:1] else (mats.shape, chunk.shape))
            raise DimensionMismatch(f"representation produced shape {got}, expected {expected}")
        chunk[...] = mats
        gram = chunk.conj().transpose(0, 2, 1) @ chunk - np.eye(d)
        if np.any(_norms(gram, (1, 2)) > 1e-10):
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


# the number of generators xi_k of each Lie kind's algebra that a rep's
# ``lie_algebra`` holds the images of (see ``_one_parameter``)
_ALGEBRA_SIZE = {"u1": 1, "su2": 2, "su3": 8}
# the times t at which ``_validate_rep`` checks U(exp(i t xi_k)) = exp(i t X_k)
_CHECK_TIMES = np.array([-0.9, -2.6])


def _expi(X: np.ndarray, times) -> np.ndarray:
    """exp(i t X_k) for each t of times and each matrix X_k of the Hermitian
    (k, d, d) stack X, by one eigh: the (len(times) * k, d, d) stack, t
    slowest."""
    w, V = np.linalg.eigh(X)
    phases = np.exp(1j * np.multiply.outer(times, w))
    return ((V * phases[:, :, None, :]) @ V.conj().mT).reshape(-1, *X.shape[1:])


@functools.lru_cache(maxsize=None)
def _one_parameter(kind: str) -> ElementBatch:
    """The elements exp(i t xi_k) of a Lie group kind, one row per generator
    xi_k for each t of ``_CHECK_TIMES`` (t slowest), each in [-pi, 0):
    U(1)'s angle t + 2pi; SU(2)'s exp(i t J_z) = U(t, 0, 0) and
    exp(i t J_y) = U(0, -t, 0) in the Euler convention, J = sigma / 2 in the
    fundamental; SU(3)'s exp(i t lambda_k / 2) over the Gell-Mann matrices
    lambda_k.  Built once per kind (a read-only batch)."""
    times = _CHECK_TIMES
    if kind == "u1":
        return U1Batch(times + TWO_PI)
    if kind == "su2":
        zeros = np.zeros_like(times)
        rows = np.stack([times, zeros, zeros, zeros, -times, zeros], axis=1)
        return SU2Batch(rows.reshape(-1, 3))
    return SU3Batch(_expi(_GELL_MANN_HALVES, times))


def _validate_rep(rep: UnitaryRep) -> UnitaryRep:
    """Check U(e) = I and the homomorphism on one stack of unitaries: the
    whole Cayley table of a finite group; for a Lie group U(g_i) U(h_i) =
    U(g_i h_i) on two seeded Haar pairs, e, g, h and gh in one batch.  A
    Lie rep's ``lie_algebra``, if any, must be a Hermitian (k, d, d) stack,
    k = ``_ALGEBRA_SIZE`` of the kind, with U(exp(i t xi_k)) = exp(i t X_k)
    at t = -0.9 and -2.6 (``_one_parameter``), those elements in the same
    batch; each check to 1e-10 in Frobenius norm, the homomorphism to 1e-9."""
    group, X = rep.group, rep.lie_algebra
    if isinstance(group, FiniteGroup):
        e, elements = group.identity, finite_elements(group)
    else:
        gh = haar_sample(rep, rng_seed=0x5EED, count=4)
        rows = [identity(group).array, gh.array, compose(group, gh[:2], gh[2:]).array]
        if X is not None:
            if X.shape != (shape := (_ALGEBRA_SIZE[group.kind], rep.dim, rep.dim)):
                raise ValueError(f"representation {rep.name!r} has a Lie algebra stack of shape "
                                 f"{X.shape}, expected {shape}")
            if np.any(_norms(X - X.conj().mT, (1, 2)) > 1e-10):
                raise ValueError(f"representation {rep.name!r} has a non-Hermitian Lie algebra")
            rows.append(_one_parameter(group.kind).array)
        e, elements = 0, _BATCHES[group.kind]._checked(np.concatenate(rows))
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
        return rep
    if np.any(np.linalg.norm(mats[1:3] @ mats[3:5] - mats[5:7], axis=(1, 2)) > 1e-9):
        raise ValueError(f"representation {rep.name!r} breaks the homomorphism")
    if X is not None and np.any(_norms(mats[7:] - _expi(X, _CHECK_TIMES), (1, 2)) > 1e-10):
        raise ValueError(f"representation {rep.name!r} is not exp(i t X) on its Lie algebra")
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
        return _diagonal_stack(np.exp(iw * batch.array[:, None]))

    return _validate_rep(UnitaryRep(U1, len(win), fn, name or f"u1{win}", meta={"weights": win},
                                    lie_algebra=np.diag(win)[None]))


def su2_fundamental() -> UnitaryRep:
    return _validate_rep(UnitaryRep(SU2, 2, lambda batch: _su2_matrices(batch.array), "su2-fund",
                                    lie_algebra=[np.diag([0.5, -0.5]), _spin_jy(2)]))


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
    the fundamental.  Its Lie algebra is J_z = diag(m) and J_y.
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
        phi, theta, psi = batch.array.T[:, :, None]
        ry = (V * np.exp(-1j * theta * w)[:, None, :]) @ Vh
        return np.exp(1j * phi * m)[:, :, None] * ry * np.exp(1j * psi * m)[:, None, :]

    return _validate_rep(UnitaryRep(SU2, dim, fn, f"su2-sym{dim - 1}",
                                    lie_algebra=[np.diag(m), _spin_jy(dim)]))


def _gell_mann_halves() -> np.ndarray:
    """The read-only (8, 3, 3) stack lambda_k / 2 of the Gell-Mann matrices
    in the standard order, tr(lambda_j lambda_k) = 2 delta_jk: lambda_1, 2
    on the pair of rows (0, 1), lambda_4, 5 on (0, 2), lambda_6, 7 on
    (1, 2), lambda_3 = diag(1, -1, 0), lambda_8 = diag(1, 1, -2) / sqrt 3."""
    out = np.zeros((8, 3, 3), dtype=complex)
    for k, (i, j) in zip((0, 3, 5), ((0, 1), (0, 2), (1, 2))):
        out[k, i, j] = out[k, j, i] = 0.5
        out[k + 1, i, j], out[k + 1, j, i] = -0.5j, 0.5j
    out[2] = np.diag([0.5, -0.5, 0.0])
    out[7] = np.diag([1.0, 1.0, -2.0]) / (2.0 * math.sqrt(3.0))
    out.setflags(write=False)
    return out


_GELL_MANN_HALVES = _gell_mann_halves()


def su3_fundamental() -> UnitaryRep:
    return _validate_rep(UnitaryRep(SU3, 3, lambda batch: batch.array, "su3-fund",
                                    lie_algebra=_GELL_MANN_HALVES))


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
    pad the fundamental with a trivial block.  The Lie algebra is the
    Gell-Mann lambda_k / 2 (X), S^T (X kron I + I kron X) S, or X + 0.
    """
    if dim == 3:
        return su3_fundamental()
    if dim in (4, 5):
        return direct_sum_rep(su3_fundamental(), trivial_rep(SU3, dim - 3),
                              name=f"su3-fund+{dim - 3}")
    if dim == 6:
        S = _symmetric_isometry_pairs(3)

        def fn6(batch):
            M = batch.array
            # M kron M for each matrix of the stack, first factor slowest
            K = (M[:, :, None, :, None] * M[:, None, :, None, :]).reshape(len(M), 9, 9)
            return S.T @ K @ S

        # X kron I + I kron X for each X of the Gell-Mann stack, first factor slowest
        X, eye = _GELL_MANN_HALVES, np.eye(3)
        K = (X[:, :, None, :, None] * eye[None, None, :, None, :]
             + eye[None, :, None, :, None] * X[:, None, :, None, :]).reshape(8, 9, 9)
        return _validate_rep(UnitaryRep(SU3, 6, fn6, "su3-sym2", lie_algebra=S.T @ K @ S))
    raise ValueError(f"no built-in SU(3) representation of dimension {dim}")


def trivial_rep(group: GroupDescriptor, dim: int, name: str = "") -> UnitaryRep:
    """U(g) = I for every g; over a Lie group, its Lie algebra is zeros."""
    eye = np.eye(_positive_dim(dim), dtype=complex)
    lie = isinstance(group, LieGroup)
    return UnitaryRep(group, dim, lambda batch: np.broadcast_to(eye, (len(batch), dim, dim)),
                      name or f"trivial{dim}", meta={"weights": (0,) * dim} if group == U1 else {},
                      lie_algebra=np.zeros((_ALGEBRA_SIZE[group.kind], dim, dim)) if lie else None)


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
    return _validate_rep(UnitaryRep(group, d, lambda batch: table[batch.array],
                                    name or "finite-rep"))


def direct_sum_rep(*reps: UnitaryRep, name: str = "") -> UnitaryRep:
    """Block-diagonal direct sum of representations of one group; over a
    finite group, one ``finite_rep`` table of the summed blocks.  Over U(1)
    the summands' weights, when each has them, are the sum's; over a Lie
    group, the block-diagonal Lie algebra, when each summand has one."""
    if not reps:
        raise ValueError("need at least one representation")
    group = reps[0].group
    if any(r.group != group for r in reps):
        raise ValueError("direct sum requires a common group")
    total = sum(r.dim for r in reps)
    name = name or "+".join(r.name for r in reps)

    def fn(batch):
        U = np.zeros((len(batch), total, total), dtype=complex)
        at = 0
        for r in reps:
            U[:, at : at + r.dim, at : at + r.dim] = r.stack_fn(batch)
            at += r.dim
        return U

    if isinstance(group, FiniteGroup):
        return finite_rep(group, fn(finite_elements(group)), name)
    weights = [r.meta.get("weights") for r in reps]
    meta = {"weights": sum(weights, ())} if group == U1 and all(weights) else {}
    algebra = None
    if all(r.lie_algebra is not None for r in reps):
        algebra = np.zeros((_ALGEBRA_SIZE[group.kind], total, total), dtype=complex)
        at = 0
        for r in reps:
            algebra[:, at : at + r.dim, at : at + r.dim] = r.lie_algebra
            at += r.dim
    return _validate_rep(UnitaryRep(group, total, fn, name, meta, algebra))


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
    if dim is not None and dim != len(w):
        raise ValueError(f"dim {dim} differs from the {len(w)} weights")
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
    """One Haar-distributed special unitary: a Ginibre matrix through
    ``_special_unitaries``, the kernel of every stack."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    return _special_unitaries(z[None])[0]


def _special_unitaries(z: np.ndarray) -> np.ndarray:
    """Overwrite the (N, n, n) Ginibre stack z with Q / det(Q)^(1/n) and
    return it, where z = QR with R's diagonal real and positive, which makes
    Q Haar-distributed on U(n) (Mezzadri, Notices AMS 54, 2007).  Gram-Schmidt
    on z's columns in order, each column projected twice against those
    before it (orthogonal to rounding however close the columns), then
    divided by its norm r_kk > 0, which fixes Q's phases by construction;
    the principal n-th root of det Q by one array ``np.angle`` and
    ``np.exp``.  Row i depends on z[i] alone, bitwise, whatever N.  A zero
    residual, a rank-deficient draw (probability zero), raises
    ``ValueError``."""
    n = z.shape[-1]
    # column k of z as the (1, n) row qt[i, k] of each sample; qt ends as Q^T
    qt = z.transpose(0, 2, 1)[:, :, None].copy()
    for k in range(n):
        v, done = qt[:, k], qt[:, :k, 0]
        for _ in range(2 if k else 0):
            v -= np.vecdot(done, v)[:, None] @ done
        r = np.sqrt(np.vecdot(v, v).real)
        if not r.all():
            raise ValueError("rank-deficient Ginibre draw: a zero Gram-Schmidt residual")
        v /= r[:, :, None]
    Q = qt[:, :, 0].transpose(0, 2, 1)
    phase = np.exp(-1j * (np.angle(np.linalg.det(Q)) / n))
    return np.multiply(Q, phase[:, None, None], out=z)


# Generators that _philox_streams re-keys, kept between calls (a new Philox
# costs more than a small batch's Euler step); a list, so nested or
# concurrent stream users each take their own
_SPARE_RNGS: list[np.random.Generator] = []


def _philox_streams(families):
    """Yield a Generator in the state of ``philox_stream(seed, i)`` for
    i = 0..count-1, for each (seed, count) of families in turn: one Philox
    re-keyed in place, counter and buffers reset, instead of a new generator
    per stream.  Each yield invalidates the last.  The state is one dict of
    plain ints, only its key changing, which the setter reads three times
    faster than uint64 arrays."""
    try:
        rng = _SPARE_RNGS.pop()
    except IndexError:
        rng = np.random.Generator(np.random.Philox(0))
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    try:
        for seed, count in families:
            key[0] = seed % 2**64
            for i in range(count):
                key[1] = i
                rng.bit_generator.state = state
                yield rng
    finally:
        _SPARE_RNGS.append(rng)


def _haar_special_unitaries(n: int, families: list[tuple[int, int]]) -> np.ndarray:
    """The stack of ``haar_unitary(n, philox_stream(seed, i))`` for i < count
    over the (seed, count) families, bitwise, filled in place.  Per batch of
    ``BATCH`` samples, the one call per sample is its draw: each stream
    fills its real and imaginary Ginibre parts in order with one
    ``standard_normal`` into a real buffer.  The rest is one
    ``_special_unitaries`` call on the batch's stack."""
    count = sum(count for _, count in families)
    out = np.empty((count, n, n), dtype=complex)
    normals = np.empty((min(count, BATCH), 2, n, n))
    streams = _philox_streams(families)
    for start in range(0, count, BATCH):
        z = out[start : start + BATCH]
        ginibre = normals[: len(z)]
        for draw, rng in zip(ginibre, streams):
            rng.standard_normal(out=draw)
        z.real = ginibre[:, 0]
        z.imag = ginibre[:, 1]
        z /= math.sqrt(2.0)
        _special_unitaries(z)
    return out


def haar_sample(rep: UnitaryRep, rng_seed: int, count: int) -> ElementBatch:
    """A batch of ``count`` elements from Haar measure (finite groups: uniform).

    Sample i is drawn from ``philox_stream(rng_seed, i)`` alone, so
    ``haar_sample(rep, s, n)[:k] == haar_sample(rep, s, k)``; SU(2) and SU(3)
    samples are bitwise ``haar_unitary`` of that stream: both run the
    Gram-Schmidt kernel ``_special_unitaries``, here on stacks of ``BATCH``
    (``_haar_special_unitaries``).  SU(2) samples become Euler angles in one
    stacked step (``_euler_angles``, which keeps them in range); SU(3)
    samples are the stack itself, special unitary by construction.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _sample_families(rep.group, [(rng_seed, count)])


def haar_families(group: GroupDescriptor, seeds: Sequence[int],
                  counts: Sequence[int]) -> list[ElementBatch]:
    """``haar_sample(rep, seeds[i], counts[i])`` of a rep of the group for
    each i, bitwise, as slices of one batch drawn at once: one Gram-Schmidt
    stack for many small families instead of one each."""
    counts = list(counts)
    if min(counts, default=1) < 1:
        raise ValueError("count must be >= 1")
    batch = _sample_families(group, list(zip(seeds, counts)))
    ends = np.cumsum(counts).tolist()
    return [batch[end - n : end] for end, n in zip(ends, counts)]


def _sample_families(group: GroupDescriptor, families: list[tuple[int, int]]) -> ElementBatch:
    """One batch of ``haar_sample(rep, seed, count)`` for each (seed, count)
    of families in turn, sample i of each from ``philox_stream(seed, i)``."""
    if isinstance(group, FiniteGroup):
        return FiniteBatch([rng.integers(group.order) for rng in _philox_streams(families)])
    if group.kind == "u1":
        return U1Batch([rng.uniform(0.0, TWO_PI) for rng in _philox_streams(families)])
    if group.kind == "su2":
        return SU2Batch._checked(_euler_angles(_haar_special_unitaries(2, families)))
    return SU3Batch._checked(_haar_special_unitaries(3, families))


@functools.lru_cache(maxsize=16)
def su2_axis_rules(order: int) -> tuple[tuple[SU2Batch, np.ndarray], ...]:
    """The three 1-D rules of the SU(2) product rule of this order, each an
    ``SU2Batch`` and its read-only weights: phi nodes (phi, 0, 0), trapezoid
    on [0, 2pi) with floor(J)+1 nodes; theta nodes (0, theta, 0),
    Gauss-Legendre in cos(theta) with ceil((floor(J)+1)/2); psi nodes
    (0, 0, psi), trapezoid on [0, 4pi) with 2J+1, folded into [-2pi, 2pi];
    J = (order-1)/2.  U(phi, theta, psi) = U(phi, 0, 0) U(0, theta, 0)
    U(0, 0, psi) and Haar measure is a product measure in these angles, so
    an integral of U^dag rho U is the three rules applied in turn, phi first.
    Built once per order and cached for the 16 orders last used."""
    if order < 4:
        raise ValueError("order must be >= 4")
    # numpy.polynomial costs milliseconds of import: only these rules need it
    from numpy.polynomial.legendre import leggauss

    n_phi, n_psi = (order + 1) // 2, order
    x, w_theta = leggauss((n_phi + 1) // 2)
    psis = 2.0 * TWO_PI * np.arange(n_psi) / n_psi
    # e^{i psi/2} has period 4pi; fold [0, 4pi) into [-2pi, 2pi]
    psis = np.where(psis > TWO_PI, psis - 2.0 * TWO_PI, psis)
    rules = []
    for axis, (angles, weights) in enumerate((
            (TWO_PI * np.arange(n_phi) / n_phi, np.full(n_phi, TWO_PI / n_phi)),
            (np.arccos(x), w_theta),
            (psis, np.full(n_psi, 2.0 * TWO_PI / n_psi)))):
        nodes = np.zeros((len(angles), 3))
        nodes[:, axis] = angles
        weights.setflags(write=False)
        rules.append((SU2Batch(nodes), weights))
    return tuple(rules)


@functools.lru_cache(maxsize=16)
def su2_quadrature_nodes(order: int) -> tuple[SU2Batch, np.ndarray]:
    """Nodes (an ``SU2Batch``) and read-only weights of the SU(2) product
    rule of this order: the product of ``su2_axis_rules(order)``, in
    (phi, theta, psi) loop order with psi fastest, weight
    (w_phi * w_theta) * w_psi.  Built once per order and cached for the 16
    orders last used (O(order^3) nodes each)."""
    (phis, w_phi), (thetas, w_theta), (psis, w_psi) = su2_axis_rules(order)
    grid = np.meshgrid(phis.array[:, 0], thetas.array[:, 1], psis.array[:, 2], indexing="ij")
    nodes = SU2Batch(np.stack(grid, axis=-1).reshape(-1, 3))
    weights = np.multiply.outer(np.multiply.outer(w_phi, w_theta), w_psi).reshape(-1)
    weights.setflags(write=False)
    return nodes, weights


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
