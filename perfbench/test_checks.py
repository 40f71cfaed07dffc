"""Each output check accepts a right output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402

Z = np.diag([1.0, -1.0]).astype(complex)


def density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def su2_probes() -> list[np.ndarray]:
    return [checks.su2_from_euler(0.7, 1.1, 2.3), checks.su2_from_euler(2.9, 0.4, -1.3)]


def test_intersection_dimension():
    basis = checks.fixed_space_basis([Z])
    assert basis.shape[1] == 2  # the diagonal matrices
    assert checks.fixed_space_basis([Z, su2_probes()[0]]).shape[1] == 1
    assert checks.identity_problem(2, 2, True, basis.shape[1]) is None
    assert checks.identity_problem(3, 2, True, 2) is not None
    assert checks.identity_problem(2, 3, True, 2) is not None
    assert checks.identity_problem(2, 2, False, 2) is not None


def test_cesaro_output():
    rho0 = density(2, 1)
    basis = checks.fixed_space_basis([Z])
    limit = np.diag(np.diag(rho0))
    assert checks.cesaro_problem(limit, rho0, [Z], basis) is None
    off = limit + 1e-8 * np.array([[0, 1], [1, 0]])
    assert "invariance" in checks.cesaro_problem(off, rho0, [Z], basis)
    shifted = limit + 1e-6 * np.diag([1.0, -1.0])
    assert "projection" in checks.cesaro_problem(shifted, rho0, [Z], basis)
    assert checks.cesaro_problem(1.01 * limit, rho0, [Z], basis) is not None


def test_haar_average_is_commutant_projection():
    rho = density(2, 2)
    comm = checks.commutant_basis(su2_probes())
    assert comm.shape[1] == 1  # Schur: scalars only
    assert checks.average_problem(np.eye(2) / 2, rho, comm) is None
    assert checks.average_problem(np.eye(2) / 2 + 1e-6 * Z, rho, comm) is not None
    # reducible: Z's commutant keeps the diagonal
    diag = checks.commutant_basis([Z])
    assert checks.average_problem(np.diag(np.diag(rho)), rho, diag) is None
    assert checks.average_problem(np.eye(2) / 2, rho, diag) is not None


def test_monte_carlo_allowance():
    rho = density(3, 3)
    rng = np.random.default_rng(4)
    comm = checks.commutant_basis([checks.haar_special_unitary(3, rng) for _ in range(2)])
    assert comm.shape[1] == 1
    small, large = (checks.monte_carlo_tol(rho, comm, n) for n in (100, 10000))
    assert 0 < large < small
    assert checks.average_problem(np.eye(3) / 3, rho, comm, large) is None
    bad = np.eye(3) / 3 + 2 * large * np.diag([1.0, -1.0, 0.0])
    assert checks.average_problem(bad, rho, comm, large) is not None


def test_moments():
    rng = np.random.default_rng(5)
    mats = np.stack([checks.haar_special_unitary(2, rng) for _ in range(4000)])
    assert checks.moments_problem(mats) is None
    biased = mats.copy()
    biased[:1000] = np.eye(2)
    assert "E U_ij" in checks.moments_problem(biased)
    assert "unitary" in checks.moments_problem(1.001 * mats)
    assert "determinant" in checks.moments_problem(mats * np.exp(0.1j))


def test_entropy_rows():
    rows = [(n, math.log(n)) for n in range(1, 65)]
    assert checks.entropy_rows_problem(rows, 64) is None
    assert checks.entropy_rows_problem(rows[:-1], 64) is not None
    bumped = rows[:10] + [(11, math.log(11) + 1e-11)] + rows[11:]
    assert checks.entropy_rows_problem(bumped, 64) is not None


def test_entropy_of():
    assert checks.entropy_of(np.eye(4) / 4) == pytest.approx(math.log(4), abs=1e-15)
    assert checks.entropy_of(np.diag([1.0, 0.0])) == 0.0


def test_crossed_dimensions():
    assert checks.crossed_problem(8, 2, 2) is None
    assert checks.crossed_problem(7, 2, 2) is not None
    assert checks.tensor_problem((8, 8), 64, [(2, 2), (2, 2)]) is None
    assert checks.tensor_problem((8, 8), 63, [(2, 2), (2, 2)]) is not None
    assert checks.tensor_problem((8, 9), 72, [(2, 2), (2, 2)]) is not None


def test_states():
    assert checks.state_problem(np.eye(2) / 2) is None
    assert checks.state_problem(np.eye(2)) is not None
    assert checks.state_problem(np.array([[0.5, 0.1], [0.0, 0.5]])) is not None
    assert checks.state_problem(np.diag([1.5, -0.5])) is not None
    assert checks.separating_problem(np.eye(2) / 2) is None
    assert checks.separating_problem(np.diag([1.0, 0.0])) is not None


def test_conventions_match_the_package():
    groups = pytest.importorskip("wignerlab.groups")
    for angles in [(0.3, 2.0, -1.0), (5.0, 0.1, 6.0)]:
        assert np.allclose(checks.su2_from_euler(*angles), groups.su2_matrix(*angles), atol=1e-14)


def test_generated_q8_document_loads():
    groups = pytest.importorskip("wignerlab.groups")
    from workloads import q8_document

    group, rep = groups.finite_group_from_json(q8_document(checks.haar_special_unitary(
        2, np.random.default_rng(6))))
    assert group.order == 8 and rep.dim == 2
