"""Deterministic seed derivation for namespaced random streams.

Every stochastic operation in the package takes an explicit integer seed.
Sub-streams (per node, per round, per probe) are derived by hashing the
base seed together with a path of labels, so that results are independent
of execution order and identical across serial and parallel schedules.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def derive_seed(*parts: int | str) -> int:
    """Hash a path of ints/strings into a stable 63-bit seed.

    Stable across processes and platforms (unlike builtin ``hash``).
    """
    if not parts:
        raise ValueError("derive_seed needs at least one part")
    payload = "\x1f".join(map(str, parts)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derive_seeds(head: Sequence[int | str], tails: Iterable[int | str]) -> list[int]:
    """``[derive_seed(*head, tail) for tail in tails]``, bit for bit, with the
    shared prefix of the hashed path joined once."""
    prefix = "\x1f".join(map(str, (*head, "")))
    sha256 = hashlib.sha256
    return [
        int.from_bytes(sha256((prefix + str(tail)).encode("utf-8")).digest()[:8], "big") >> 1
        for tail in tails
    ]


def spawn_rng(*parts: int | str) -> np.random.Generator:
    """Create a Generator seeded from a derived path seed."""
    return np.random.default_rng(derive_seed(*parts))


# numpy's SeedSequence constants (pool of 4 uint32 words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The ``n`` successive values SeedSequence's hash constant takes."""
    consts = [init]
    while len(consts) < n:
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


def _mix_consts(consts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row dst of ``xor[src]`` and ``mul[src]``: the hash call that mixes pool
    word src into word dst (row src is unused). The calls follow the pool
    fill's four, one per ordered pair of distinct words, dst running fastest."""
    xor = np.zeros((4, 4, 1), dtype=np.uint32)
    mul = np.zeros((4, 4, 1), dtype=np.uint32)
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for k, (src, dst) in enumerate(pairs, start=4):
        xor[src, dst], mul[src, dst] = consts[k], consts[k + 1]
    return xor, mul


# Hash call k xors with constant k and multiplies by constant k + 1. Entropy
# mixing makes 16 calls (4 to fill the pool, 12 to mix it) and
# generate_state(4, uint64) makes 8.
_A = _hash_consts(_INIT_A, _MULT_A, 17)
_FILL_XOR, _FILL_MUL = _column(_A[0:4]), _column(_A[1:5])
_MIX_XOR, _MIX_MUL = _mix_consts(_A)
_B = _hash_consts(_INIT_B, _MULT_B, 9)
_STATE_XOR, _STATE_MUL = _column(_B[0:8]), _column(_B[1:9])
_MIX_L, _MIX_R, _SHIFT = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R), np.uint32(16)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of ``value``, one hash call per row of the constants."""
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """A ``(len(seeds), 4)`` uint64 array whose row i holds the (initstate_hi,
    initstate_lo, initseq_hi, initseq_lo) words that
    ``SeedSequence(seeds[i]).generate_state(4, np.uint64)`` gives PCG64, through
    SeedSequence's uint32 arithmetic run for all 63-bit seeds at once."""
    words = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    # The entropy words are (lo32, hi32); a seed below 2**32 has one word,
    # and hashing the missing word hashes a 0, as the explicit word does.
    pool[0] = words & np.uint64(_MASK32)
    pool[1] = words >> np.uint64(32)
    pool = _hashmix(pool, _FILL_XOR, _FILL_MUL)
    # Word src is hashed into each of the three other words. Those three
    # hash-and-mix updates are independent, so they run as one operation on
    # the whole pool, and word src keeps its value.
    for src in range(4):
        hashed = _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src])
        mixed = pool * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    # generate_state(4, uint64): eight words from the cycled pool, paired
    # little-endian.
    state = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T.copy()


class _SeedWords(ISeedSequence):
    """Hands ``PCG64`` one row of :func:`_seed_words` as its seed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Any other request is not PCG64's seeding: fail rather than drift.
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words hold 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def seed_states(label: str, seeds: Sequence[int]) -> np.ndarray:
    """The generators ``spawn_rng(label, seed)`` makes for every seed, seeded in
    one vectorized pass: a ``(len(seeds), 4)`` uint64 array, 32 bytes a
    generator, for :func:`permutations` to draw from. The derived seeds are
    the same."""
    return _seed_words(derive_seeds((label,), seeds))


def _draw_rows(states: np.ndarray, rows: np.ndarray, draw) -> np.ndarray:
    """Row i of ``rows`` filled in place by ``draw(generator, row)`` from a
    fresh generator that PCG64 seeds from ``states[i]``."""
    # PCG64 reads the seed words as raw memory, so a strided row would seed
    # another state; the rows of a C-ordered array are contiguous.
    states = np.ascontiguousarray(states, dtype=np.uint64)
    for row, words in zip(rows, states):
        draw(np.random.Generator(np.random.PCG64(_SeedWords(words))), row)
    return rows


def permutations(states: np.ndarray, n: int) -> np.ndarray:
    """A ``(len(states), n)`` int64 array whose row i is the ``permutation(n)``
    a generator in seeded state ``states[i]`` (see :func:`seed_states`) draws."""
    # Generator.permutation(n) shuffles np.arange(n) in place.
    rows = np.tile(np.arange(n, dtype=np.int64), (len(states), 1))
    return _draw_rows(states, rows, np.random.Generator.shuffle)


def permutation_rows(label: str, seeds: Sequence[int], n: int) -> np.ndarray:
    """A ``(len(seeds), n)`` array whose row i is
    ``spawn_rng(label, seeds[i]).permutation(n)``, bit for bit."""
    return permutations(seed_states(label, seeds), n)


def normal_rows(label: str, seeds: Sequence[int], n: int) -> np.ndarray:
    """A ``(len(seeds), n)`` array whose row i is
    ``spawn_rng(label, seeds[i]).standard_normal(n)``, bit for bit.

    The generators are seeded in one vectorized pass instead of one
    ``default_rng`` per seed; the derived seeds are the same.
    """
    rows = np.empty((len(seeds), n))
    return _draw_rows(
        seed_states(label, seeds), rows, lambda gen, row: gen.standard_normal(out=row)
    )
