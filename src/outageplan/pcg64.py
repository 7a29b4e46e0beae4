"""numpy's PCG64 stream, without numpy.random.

The package draws every random number from PCG64 (O'Neill 2014, the PCG
XSL RR 128/64 generator) seeded from an int through numpy's SeedSequence
hash. NEP 19 keeps those two algorithms' streams fixed across numpy
releases, but not the `Generator` methods that turn the stream into
numbers, so the package owns the slice it uses:

- seeding: SeedSequence(seed) with its pool of 4 words, `generate_state(4,
  uint64)`, then PCG's `srandom_r` with the first two words as the initial
  state and the last two as the stream selector;
- `random()`: `(next64 >> 11) * 2**-53`, as `Generator.random`;
- `integers(0, 2**63, size, dtype=np.int64)`: `next64 >> 1` per value, as
  `Generator.integers` for that range (Lemire's method with a zero
  rejection threshold).

`PCG64(seed)` therefore gives the numbers of
`numpy.random.Generator(numpy.random.PCG64(seed))` bit for bit, and
`tests/test_pcg64.py` checks it. `PCG64.streams(seeds)` seeds one generator
per seed with the same SeedSequence hash run over numpy arrays, every seed
of a word count at once. The compiled Q-learning loop
(`_kernels.c`) steps the same generator from the `words()` of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _entropy(seed: int) -> list[int]:
    """The 32-bit words SeedSequence hashes from an int seed: at least one,
    least significant first."""
    return [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]


def _generate_state(entropy: list) -> list:
    """SeedSequence's pool mixing and `generate_state(4, uint64)` of one
    seed's entropy words: Python ints, or uint64 arrays that each hold one
    word of many seeds with the same word count. The four words come back
    in the same kind. The hash constant steps once per word hashed, so such
    seeds share every constant. On arrays, uint64 arithmetic masked to 32
    bits gives the ints' results: no product of two 32-bit words overflows
    it, and a wrapped difference is right modulo 2**32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # each uint64 is two uint32 words, the low one first
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each int seed >= 0
    of `seeds`, as the rows of a (len(seeds), 4) uint64 array: the seeds
    with the same word count are hashed at once."""
    words = [_entropy(seed) for seed in seeds]
    groups: dict[int, list[int]] = {}
    for i, entropy in enumerate(words):
        groups.setdefault(len(entropy), []).append(i)
    out = np.empty((len(seeds), _POOL_SIZE), np.uint64)
    for members in groups.values():
        columns = np.array([words[i] for i in members], np.uint64).T
        out[members] = np.stack(_generate_state(list(columns)), axis=1)
    return out


def _check_seed(seed) -> int:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


class PCG64:
    """numpy's PCG64 generator seeded with an int >= 0, drawing the numbers
    `numpy.random.Generator(numpy.random.PCG64(seed))` draws with the
    methods the package uses. `state` and `inc` are the 128-bit state and
    odd increment, as numpy's `bit_generator.state` reports them."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        self._srandom(*_generate_state(_entropy(_check_seed(seed))))

    @classmethod
    def streams(cls, seeds: Sequence[int]) -> list["PCG64"]:
        """`[PCG64(seed) for seed in seeds]`, with every seed hashed at once."""
        gens = [cls.__new__(cls) for _ in seeds]
        for gen, words in zip(gens, _seed_words([_check_seed(seed) for seed in seeds]).tolist()):
            gen._srandom(*words)
        return gens

    def _srandom(self, high_state: int, low_state: int, high_seq: int, low_seq: int) -> None:
        """PCG's srandom_r from the four seed words: the first two are the
        initial state and the last two the stream selector. From state 0,
        step, add the initial state, step again."""
        self.inc = ((high_seq << 64 | low_seq) << 1 | 1) & _MASK128
        self.state = (self.inc + (high_state << 64 | low_state)) & _MASK128
        self.state = (self.state * MULTIPLIER + self.inc) & _MASK128

    def next64(self) -> int:
        """The next 64-bit output: step the LCG, then xor-fold the new state
        and rotate it right by its top six bits."""
        self.state = state = (self.state * MULTIPLIER + self.inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def random(self) -> float:
        """A float64 uniform on [0, 1) from the top 53 bits of one output."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int, size: int, dtype=np.int64) -> np.ndarray:
        """`size` int64 values uniform on [0, 2**63), one output each; the
        only range the package draws. ValueError for any other."""
        if (low, high) != (0, 2**63) or np.dtype(dtype) != np.int64:
            raise ValueError("PCG64.integers draws int64 values on [0, 2**63) only")
        return np.array([self.next64() >> 1 for _ in range(size)], np.int64)

    def words(self) -> np.ndarray:
        """The state and increment as the four uint64 words the compiled
        loop steps in place: state low, state high, increment low,
        increment high."""
        return np.array([self.state & _MASK64, self.state >> 64, self.inc & _MASK64, self.inc >> 64], np.uint64)
