"""numpy's `SeedSequence` → `PCG64` seeding, replayed on arrays.

`default_rng(SeedSequence(entropy=row))` hashes the row's entropy words into
a 128-bit PCG64 state and increment. Building one `SeedSequence` per row costs
microseconds of Python each; `pcg64_states` computes the seeded state of every
row at once in uint32/uint64 array arithmetic, bit for bit as numpy does.
`evalkit` steps those states itself to replay its frozen negatives, and
`walker` loads each node's state into one shared `PCG64`. The tests pin the
replay to numpy (`test_choice_replay_*`,
`test_run_walks_rows_are_the_oracle_endpoints`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# SeedSequence's hash constants and PCG64's 128-bit multiplier, as numpy has them.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_U32, _U64 = np.uint32, np.uint64


def _entropy_words(values: Sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every row's `SeedSequence` entropy words and their count.

    `values` are non-negative ints (the same for every row) or arrays of n
    non-negative int64s. Like numpy, each value gives its 32-bit words low
    first (0 gives one word), and a row concatenates its values' words. Rows
    are zero-padded to the longest row and to at least the pool's 4 words.
    """
    columns, present = [], []
    for value in values:
        if isinstance(value, (int, np.integer)):
            value = int(value)
            if value < 0:
                raise ValueError(f"entropy values must be non-negative, got {value}")
            while True:
                columns.append(np.full(n, value & _M32, dtype=_U32))
                present.append(np.ones(n, dtype=bool))
                value >>= 32
                if not value:
                    break
        else:
            value = np.asarray(value, dtype=np.int64)
            columns += [(value & _M32).astype(_U32), (value >> 32).astype(_U32)]
            present += [np.ones(n, dtype=bool), value > _M32]
    present = np.stack(present, axis=1)
    lengths = present.sum(axis=1)
    words = np.zeros((n, max(4, present.shape[1])), dtype=_U32)
    rows, cols = np.nonzero(present)
    slot = np.cumsum(present, axis=1) - 1  # a word's column in its row
    words[rows, slot[rows, cols]] = np.stack(columns, axis=1)[rows, cols]
    return words, lengths


def _seed_state(words: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """`SeedSequence(entropy).generate_state(4, np.uint64)` per row, as four
    uint64 arrays: the pool mixing, then the output hashing, in uint32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * _U32(hash_const)
        return value ^ (value >> _U32(16))

    def mix(x, y):
        result = _U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y
        return result ^ (result >> _U32(16))

    pool = [hashmix(words[:, i]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, words.shape[1]):  # words beyond the pool, where a row has them
        more = i_src < lengths
        for i_dst in range(4):
            pool[i_dst] = np.where(more, mix(pool[i_dst], hashmix(words[:, i_src])), pool[i_dst])
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ _U32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * _U32(hash_const)
        state.append((value ^ (value >> _U32(16))).astype(_U64))
    return [state[2 * k] | (state[2 * k + 1] << _U64(32)) for k in range(4)]


def _mulhi64(a: np.ndarray, c: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * c, from 32-bit limbs."""
    a0, a1 = a & _U64(_M32), a >> _U64(32)
    c0, c1 = _U64(c & _M32), _U64(c >> 32)
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_M32)) + (p10 & _U64(_M32))
    return a1 * c1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def pcg64_step(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCG, state * multiplier + inc, on (hi, lo) words."""
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _U64(_PCG_MULT_HI) + hi * _U64(_PCG_MULT_LO)
    new_lo = lo * _U64(_PCG_MULT_LO) + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo).astype(_U64), new_lo


def pcg64_states(entropy: Sequence, n: int) -> tuple[np.ndarray, ...]:
    """`(state_hi, state_lo, inc_hi, inc_lo)` uint64 arrays: row k's PCG64
    state and increment right after `PCG64(SeedSequence(entropy=row k's
    values))` is built, before any draw.

    `entropy` is as for `_entropy_words`. `pcg64_set_seed` seeds from the
    four `generate_state` words (initial state, then initseq, high word
    first): inc = 2 * initseq + 1, step, add the initial state, step.
    """
    s_hi, s_lo, inc_hi, inc_lo = _seed_state(*_entropy_words(entropy, n))
    inc_hi = (inc_hi << _U64(1)) | (inc_lo >> _U64(63))
    inc_lo = (inc_lo << _U64(1)) | _U64(1)
    lo = inc_lo + s_lo
    hi, lo = pcg64_step(inc_hi + s_hi + (lo < s_lo).astype(_U64), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo
