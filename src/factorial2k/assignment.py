"""Completely randomized assignment and observed-data extraction.

Randomness flows through ``numpy.random.Generator`` streams seeded via
``SeedSequence``; callers that need reproducible parallel fan-out give
each replication its own child stream, so results do not depend on
execution order.  :class:`ChildStreams` computes those children's PCG64
states in bulk instead of building one ``SeedSequence`` and generator
per replication.

The design fixes the arm sizes n_1..n_J, and with them N = sum n_j: every
assignment drawn or enumerated here has exactly those sizes, so they are
taken from ``arms`` and never counted again.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Collection, Iterator

import numpy as np

from ._checks import check_arms, check_counts, check_factors, read_only, whole_numbers
from .errors import ResourceLimitError
from .population import PotentialTable

MAX_ENUMERATION = 10_000_000

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MASK = (1 << 128) - 1


@dataclass(frozen=True)
class ObservedData:
    """Arm sizes and success counts, the sole input to all inference.

    The arm sizes follow :func:`check_arms`, with J = 2^K of them.  Both
    vectors are kept as read-only int64 arrays; a writable array passed in
    is copied, not frozen.  Each construction checks its arguments;
    :meth:`rows` builds many datasets of one design from one checked
    count array.
    """

    k: int
    n: np.ndarray  # (J,) arm sizes, each >= 2
    n_obs: np.ndarray  # (J,) success counts, 0 <= n_obs <= n

    def __post_init__(self) -> None:
        check_factors(self.k)
        n = check_arms(self.n, n_arms=2**self.k)
        n_obs = whole_numbers(self.n_obs, "success counts")
        if n_obs.shape != n.shape:
            raise ValueError(f"expected {n.size} success counts for K={self.k}")
        # Python ints: cheaper than numpy comparisons on J entries
        if not all(0 <= s <= size for s, size in zip(n_obs.tolist(), n.tolist())):
            raise ValueError("success counts must satisfy 0 <= n_obs <= n")
        object.__setattr__(self, "n", read_only(n))
        object.__setattr__(self, "n_obs", read_only(n_obs))

    @classmethod
    def rows(cls, k: int, n, counts) -> Iterator[ObservedData]:
        """One dataset per row of the (R, J) success counts ``counts``, all
        with the arm sizes ``n``.

        K, the arm sizes (:func:`check_arms`) and the whole count array
        (:func:`check_counts`) are checked here, once, so each dataset is
        built without running :meth:`__post_init__` again.  The datasets
        share the read-only arm sizes, and each keeps its count row as a
        read-only view; a writable argument is copied once, not frozen.
        """
        check_factors(k)
        n = read_only(check_arms(n, n_arms=2**k))
        counts = read_only(check_counts(counts, n))

        def datasets() -> Iterator[ObservedData]:
            for row in counts:
                obs = object.__new__(cls)
                obs.__dict__.update(k=k, n=n, n_obs=row)
                yield obs

        return datasets()

    @property
    def n_arms(self) -> int:
        return self.n.shape[0]

    @property
    def n_units(self) -> int:
        return int(self.n.sum())

    @property
    def p_hat(self) -> np.ndarray:
        """Observed arm means n_obs / n."""
        return self.n_obs / self.n


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a SeedSequence hash constant, which is
    multiplied by ``mult`` at each word hashed."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _WORD)
    return np.array(values, dtype=np.uint32)


# generate_state(4, uint64) hashes 8 pool words; word i is xored with
# constant i and multiplied by constant i + 1
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 9)


def _word_count(value) -> int:
    """How many uint32 words numpy's SeedSequence reads from an int, or a
    sequence of ints, given as entropy or spawn key: each int's
    little-endian 32-bit words, at least one."""
    if isinstance(value, numbers.Integral):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(_word_count(item) for item in value)


class ChildStreams:
    """The children of one ``SeedSequence`` as PCG64 streams, seeded in bulk.

    Child i is the stream ``PCG64(SeedSequence(entropy, spawn_key=spawn_key
    + (i,), pool_size=pool_size))`` that ``spawn`` hands out as its i-th
    child, for i below 2^32 (one key word).  A child hashes the parent's
    words (the entropy, zero-padded to the pool size, then the parent's
    spawn key) and then its own key word.  numpy has already mixed the
    parent's words into ``seed_seq.pool``, taking ``pool_size`` steps of
    the hash constant per word, so the constant is read off the word
    count.  :meth:`states` then mixes in each child's own key word and runs
    ``generate_state(4, uint64)`` as uint32 array operations over all
    requested children, and PCG64's 128-bit seeding step on Python ints.
    The parent's spawn counter is not read or advanced.
    """

    def __init__(self, seed_seq: np.random.SeedSequence):
        size = seed_seq.pool_size
        words = max(_word_count(seed_seq.entropy), size) + _word_count(seed_seq.spawn_key)
        hash_const = _INIT_A * pow(_MULT_A, size * words, _WORD + 1) & _WORD
        # the child's key word is mixed into each pool word in turn:
        # mix(pool, hashmix(key)), its left half the same for every child
        self._pool_left = seed_seq.pool * np.uint32(_MIX_MULT_L)
        self._key_constants = _hash_constants(hash_const, _MULT_A, size + 1)
        self._state_words = np.arange(8) % size
        self._generator = np.random.Generator(np.random.PCG64(seed_seq))

    def states(self, start: int, count: int) -> list[dict]:
        """The ``bit_generator.state`` of children ``start..start+count-1``."""
        if not 0 <= start <= start + count <= 2**32:
            raise ValueError(f"child indices {start}..{start + count - 1} are not all in 0..2^32-1")
        key = (np.arange(count, dtype=np.uint64) + start).astype(np.uint32)[:, None]
        hashed = (key ^ self._key_constants[:-1]) * self._key_constants[1:]
        hashed ^= hashed >> 16
        pool = self._pool_left - hashed * np.uint32(_MIX_MULT_R)
        pool ^= pool >> 16
        words = (pool[:, self._state_words] ^ _STATE_CONSTANTS[:-1]) * _STATE_CONSTANTS[1:]
        words ^= words >> 16
        # generate_state's uint64 words are little-endian uint32 pairs
        seeds = np.ascontiguousarray(words, "<u4").view("<u8").tolist()
        states = []
        for seed_hi, seed_lo, inc_hi, inc_lo in seeds:
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _PCG_MASK
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _PCG_MASK
            states.append(
                {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            )
        return states

    def streams(self, start: int, count: int) -> "_Reseeded":
        """Children ``start..start+count-1`` for :func:`draw_assignment`:
        one reused generator, set to each child's state in turn as the
        iteration reaches it, so each stream must be used up before the
        next is taken."""
        return _Reseeded(self._generator, self.states(start, count))


class _Reseeded:
    """A sized iterable that yields one generator per state, each time set
    to that state."""

    def __init__(self, generator: np.random.Generator, states: list[dict]):
        self._generator = generator
        self._states = states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[np.random.Generator]:
        for state in self._states:
            self._generator.bit_generator.state = state
            yield self._generator


def draw_assignment(arms: np.ndarray, streams: Collection[np.random.Generator]) -> np.ndarray:
    """Uniform completely randomized assignments into groups of the given
    sizes, one per stream.

    Returns the read-only (R, N) int64 arm matrix for R streams, where N is
    the sum of the arm sizes: entry (r, i) is unit i's 1-based arm in
    assignment r.  Row r splits one ``permutation(N)`` call on the r-th
    stream into consecutive blocks, which makes every partition into
    labelled groups of sizes n_1..n_J equally likely.  The streams are
    iterated once, in order, and each is drawn from before the next is
    taken (as :meth:`ChildStreams.streams` requires).
    """
    arms = check_arms(arms)
    labels = np.repeat(np.arange(1, arms.size + 1), arms)  # one per unit
    n_units = labels.size
    arm_of = np.empty((len(streams), n_units), dtype=np.int64)
    for row, stream in zip(arm_of, streams):
        row[stream.permutation(n_units)] = labels
    arm_of.setflags(write=False)
    return arm_of


def observe(table: PotentialTable, arm_of: np.ndarray) -> np.ndarray:
    """Reveal each unit's outcome under its arm ``arm_of[r, i]`` (1-based)
    in every row r of an assignment batch, and count each row's successes
    per arm.

    Returns the (R, J) int64 success counts.  Every row of a batch that
    :func:`draw_assignment` or :func:`enumerate_assignments` builds has the
    design's arm sizes, so they are not counted again.
    """
    if arm_of.ndim != 2 or arm_of.shape[1] != table.n_units:
        raise ValueError("assignment and table describe different unit counts")
    n_obs = np.empty((arm_of.shape[0], table.n_arms), dtype=np.int64)
    # arm by arm: J boolean passes over the batch beat one int64 bincount
    # over (row, arm, outcome) codes at the J <= 4 of a coverage study
    for j, success in enumerate(table.outcomes.T.astype(bool)):
        n_obs[:, j] = np.count_nonzero((arm_of == j + 1) & success, axis=1)
    return n_obs


def _multinomial(sizes: list[int], bound: int) -> int:
    """The multinomial coefficient of ``sizes`` when it is at most
    ``bound``; otherwise the first partial product past ``bound``, which
    tells the caller only that the coefficient exceeds it.  It is built one
    unit at a time as a product of binomial coefficients, each partial
    product a whole number no smaller than the last, so a large population
    stops early instead of taking the factorial of N."""
    total, placed = 1, 0
    for size in sizes:
        for i in range(1, size + 1):
            placed += 1
            total = total * placed // i
            if total > bound:
                return total
    return total


def enumerate_assignments(arms: np.ndarray) -> Iterator[np.ndarray]:
    """Yield every distinct assignment exactly once, as a read-only arm vector.

    Exhaustive-enumeration oracle for small populations; refuses to run
    when the multinomial coefficient exceeds ``MAX_ENUMERATION``.
    """
    sizes = check_arms(arms).tolist()
    if _multinomial(sizes, MAX_ENUMERATION) > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"{sizes} arm sizes give more than {MAX_ENUMERATION} assignments, "
            "the enumeration bound"
        )
    arm_of = np.empty(sum(sizes), dtype=np.int64)

    def fill(remaining: tuple[int, ...], arm: int) -> Iterator[np.ndarray]:
        if arm == len(sizes):  # last arm takes whatever is left
            arm_of[list(remaining)] = arm
            drawn = arm_of.copy()
            drawn.setflags(write=False)
            yield drawn
            return
        for chosen in itertools.combinations(remaining, sizes[arm - 1]):
            arm_of[list(chosen)] = arm
            rest = tuple(u for u in remaining if u not in chosen)
            yield from fill(rest, arm + 1)

    yield from fill(tuple(range(arm_of.size)), 1)
