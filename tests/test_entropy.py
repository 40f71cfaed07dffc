import math

import numpy as np
import pytest

from wignerlab import (
    DensityState,
    NotOrthonormal,
    PartitionWeights,
    cyclic_rep,
    haar_average,
    haar_sample,
    maximally_mixed,
    no_hair_state,
    partition_entropy,
    pullback,
    pure_state,
    random_density,
    su2_fundamental,
    vn_entropy,
)


def test_vn_entropy_basic_values():
    assert vn_entropy(pure_state([1, 0, 0])) == 0.0
    for d in (2, 3, 7):
        assert vn_entropy(maximally_mixed(d)) == pytest.approx(math.log(d), abs=1e-12)
    rho = DensityState(3, np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert vn_entropy(rho) == pytest.approx(math.log(2), abs=1e-12)
    assert vn_entropy(rho, base=2) == pytest.approx(1.0, abs=1e-12)


def test_vn_entropy_rejects_broken_spectra():
    # legal DensityState whose eigenvalue sits below the entropy clip window
    rho = DensityState(2, np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
    with pytest.raises(ValueError):
        vn_entropy(rho)


def test_partition_entropy_values():
    assert partition_entropy(PartitionWeights.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)
    assert partition_entropy(PartitionWeights(3, (1.0, 0.0, 0.0))) == 0.0
    expected = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
    assert partition_entropy(PartitionWeights(2, (0.75, 0.25))) == pytest.approx(expected, abs=1e-14)


def test_partition_weights_validation():
    with pytest.raises(ValueError):
        PartitionWeights(2, (0.7, 0.7))
    with pytest.raises(ValueError):
        PartitionWeights(2, (-0.1, 1.1))
    with pytest.raises(ValueError):
        PartitionWeights(3, (0.5, 0.5))
    # a NaN weight passed the sign and sum checks and had entropy 0.0
    with pytest.raises(ValueError, match="weights must be finite"):
        PartitionWeights(2, (math.nan, 1.0))


def test_entropy_base_must_be_finite_and_above_one():
    # base NaN passed "base <= 1" and gave a NaN entropy
    for base in (math.nan, math.inf, 1.0, 0.5):
        with pytest.raises(ValueError, match="base must be a finite number > 1"):
            vn_entropy(DensityState(1, [[1.0]]), base=base)
        with pytest.raises(ValueError, match="base must be a finite number > 1"):
            partition_entropy(PartitionWeights.uniform(2), base=base)


def test_uniform_partition_sweep_monotone():
    values = [partition_entropy(PartitionWeights.uniform(n)) for n in range(1, 17)]
    for n, h in enumerate(values, start=1):
        assert h == pytest.approx(math.log(n), abs=1e-12)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_no_hair_state_values():
    single = no_hair_state([[1, 0, 0]])
    assert vn_entropy(single) == 0.0
    full = no_hair_state(np.eye(4))
    assert np.abs(full.rho - np.eye(4) / 4).max() <= 1e-14
    two_in_three = no_hair_state([[1, 0, 0], [0, 1, 0]])
    vals = np.sort(two_in_three.eigenvalues())
    assert np.allclose(vals, [0.0, 0.5, 0.5], atol=1e-12)
    assert vn_entropy(two_in_three) == pytest.approx(math.log(2), abs=1e-10)


def test_no_hair_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        no_hair_state([[1, 0], [1, 1e-3]])
    with pytest.raises(ValueError):
        no_hair_state([[1, 0], [0, 1], [1, 0]])  # more vectors than dimensions


def test_unitary_invariance(rng):
    rep = su2_fundamental()
    for i in range(10):
        rho = random_density(2, rng)
        g = haar_sample(rep, 500 + i, 1)[0]
        assert abs(vn_entropy(pullback(rep, g, rho)) - vn_entropy(rho)) <= 1e-10


def test_concavity_spot_check(rng):
    for _ in range(10):
        a, b = random_density(3, rng), random_density(3, rng)
        lam = rng.random()
        mix = DensityState(3, lam * a.rho + (1 - lam) * b.rho)
        assert vn_entropy(mix) >= lam * vn_entropy(a) + (1 - lam) * vn_entropy(b) - 1e-10


def test_averaging_never_decreases_entropy(rng):
    rep = cyclic_rep(4, dim=3)
    for _ in range(5):
        rho = random_density(3, rng)
        averaged = haar_average(rep, rho, method="finite_exact").state
        assert vn_entropy(averaged) >= vn_entropy(rho) - 1e-9
    srep = su2_fundamental()
    rho = random_density(2, rng)
    averaged = haar_average(srep, rho, method="quadrature").state
    assert vn_entropy(averaged) >= vn_entropy(rho) - 1e-9
