import numpy as np
import pytest
from oracles import scalar_loop_permutation

from gaitreg.rng import SplitMix64, derive_seed, mix64


def test_streams_are_deterministic():
    a = SplitMix64(12345).u64_block(64)
    b = SplitMix64(12345).u64_block(64)
    assert np.array_equal(a, b)


def test_known_splitmix_vector():
    # reference values for seed 0 from the published splitmix64 algorithm
    out = SplitMix64(0).u64_block(3)
    assert int(out[0]) == 0xE220A8397B1DCDAF
    assert int(out[1]) == 0x6E789E6AA1B965F4
    assert int(out[2]) == 0x06C45D188009454F


def test_uniform_range_and_spread():
    u = SplitMix64(3).uniform_block(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_moments():
    z = SplitMix64(9).normal_block(20_000, 2.0, 3.0)
    assert abs(z.mean() - 2.0) < 0.1
    assert abs(z.std() - 3.0) < 0.1


def test_permutation_is_a_permutation():
    perm = SplitMix64(4).permutation(257)
    assert sorted(perm.tolist()) == list(range(257))
    assert not np.array_equal(perm, np.arange(257))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 489, 4870])
def test_permutation_matches_scalar_loop(n):
    for seed in range(20):
        ours, theirs = SplitMix64(seed), SplitMix64(seed)
        got = ours.permutation(n)
        want = scalar_loop_permutation(theirs, n)
        assert np.array_equal(got, want) and got.dtype == want.dtype
        # same draws consumed
        assert np.array_equal(ours.uniform_block(1), theirs.uniform_block(1))


def test_derive_seed_order_sensitivity():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert 0 <= mix64(123) < 2**64
