"""Counter-based random substreams.

Every stochastic task derives its own generator from (master seed, role,
indices...), so results never depend on execution order and parallel maps
stay reproducible.  A task's generator is exactly numpy's
default_rng(SeedSequence([master seed, *key])), derived for many keys in
one pass (keyed streams: Salmon et al., SC 2011; PCG64: O'Neill, 2014).
"""

from __future__ import annotations

import itertools

import numpy as np

from .hamiltonians import ConfigError, _count

# role tags for substream derivation
ROLE_COUPLINGS = 1
ROLE_SPLIT = 2
ROLE_SHOTS = 3
ROLE_VALID = 5

# numpy's SeedSequence hash constants (bit_generator.pyx), PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1
#: keys per vectorized pass, which bounds the pass's memory
_KEY_CHUNK = 256


def _hasher(init: int, mult: int):
    """numpy's hash step on uint32 arrays; its multiplier advances per call."""
    const = init

    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return step


def _seed_states(entropy: np.ndarray):
    """PCG64 (state, inc) seeded by SeedSequence(row) for each row of a
    (B, W >= 4) uint32 array: the entropy pool's hashmix, generate_state(4,
    uint64), then pcg64_set_seed: inc = initseq << 1 | 1, one LCG step,
    state += initstate, one LCG step."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ out >> 16

    pool = [hashmix(word) for word in entropy.T[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy.T[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    w = [out(pool[i % 4]).astype(object) for i in range(8)]  # Python ints
    inc = (w[4] << 65 | w[5] << 97 | w[6] << 1 | w[7] << 33 | 1) & _M128
    initstate = w[0] << 64 | w[1] << 96 | w[2] | w[3] << 32
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


def substreams(master_seed: int, keys):
    """Generators of the tasks (master_seed, *key) for an iterable of keys,
    equal-length sequences of indices in [0, 2**32), in order.  One
    Generator is re-seeded in place per key, so take a key's draws before
    advancing; it has no seed sequence to spawn from."""
    seed = _count("master seed", master_seed)
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    bitgen = np.random.PCG64(0)  # placeholder seed: each key sets the state
    gen, state = np.random.Generator(bitgen), bitgen.state
    keys = iter(keys)
    while chunk := list(itertools.islice(keys, _KEY_CHUNK)):
        chunk = np.array(chunk, dtype=np.int64)
        if chunk.ndim != 2 or chunk.size and not (
                0 <= chunk.min() <= chunk.max() <= _M32):
            raise ConfigError("keys must be sequences of indices in [0, 2**32)")
        width = len(words) + chunk.shape[1]
        entropy = np.zeros((len(chunk), max(4, width)), dtype=np.uint32)
        entropy[:, :len(words)] = words  # little-endian words, as numpy's;
        entropy[:, len(words):width] = chunk  # short entropy hashes zeros
        for s, inc in zip(*_seed_states(entropy)):
            state["state"] = {"state": s, "inc": inc}
            bitgen.state = state
            yield gen


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the task addressed by (master_seed, *key):
    the one-row case of substreams, as a fresh object."""
    return next(substreams(master_seed, [key]))
