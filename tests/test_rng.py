"""The bulk substream derivation against numpy's own SeedSequence -> PCG64.

numpy's default_rng(SeedSequence([seed, *key])) is the oracle: every
derived generator must give the same raw outputs and the same binomial,
uniform and permutation draws, over 10^5 keys of 2-6 words and seeds that
take one, two and three uint32 words."""

import numpy as np
import pytest

from hamfourier.rng import substream, substreams

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)
KEYS_PER_CASE = 4_000  # 5 seeds x 5 key lengths x 4,000 = 10^5 keys


def draws(gen: np.random.Generator) -> list:
    return [*gen.bit_generator.random_raw(4).tolist(),
            int(gen.binomial(1000, 0.3)), *gen.uniform(-1.0, 1.0, 2).tolist(),
            *gen.permutation(6).tolist()]


def test_matches_numpy_seed_sequence():
    rng = np.random.default_rng(20260811)
    checked = 0
    for seed in SEEDS:
        for length in range(2, 7):
            keys = rng.integers(0, 2**32, size=(KEYS_PER_CASE, length))
            keys[: KEYS_PER_CASE // 2] %= 16  # small indices, as in the program
            bulk = [draws(gen) for gen in substreams(seed, keys)]
            oracle = [draws(np.random.default_rng(
                np.random.SeedSequence([seed, *key]))) for key in keys.tolist()]
            assert bulk == oracle, (seed, length)
            checked += len(keys)
    assert checked >= 100_000


@pytest.mark.parametrize("seed, key", [(7, ()), (0, (3,)), (2**64 + 3, (1, 2))])
def test_short_keys_match(seed, key):
    # keys below the four-word pool and the seed-only stream
    oracle = np.random.default_rng(np.random.SeedSequence([seed, *key]))
    assert draws(substream(seed, *key)) == draws(oracle)


def test_substreams_are_independent_objects():
    a, b = substream(7, 3, 0, 1), substream(7, 3, 0, 1)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(3)
    assert np.array_equal(b.random(3), first)  # b did not advance with a
    assert not np.array_equal(a.random(3), first)


def test_empty_batch_yields_nothing():
    assert list(substreams(7, np.zeros((0, 3), dtype=int))) == []


@pytest.mark.parametrize("seed, keys", [
    (-1, [(1, 2)]),
    (7, [(1, -2)]),
    (7, [(1, 2**32)]),
    (7, [1, 2]),
    (7, [(1, 2), (3,)]),
])
def test_refuses_bad_input(seed, keys):
    with pytest.raises(ValueError):
        next(substreams(seed, keys))


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="master seed must be >= 0, got -1"):
        substream(-1, 2)
