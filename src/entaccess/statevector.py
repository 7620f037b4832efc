"""Exact state-vector simulation that stores only the support of each state.

A state is a dict from basis index (a Python int, so the register width is
unbounded) to its nonzero complex amplitude. Every primitive works on that
support, so its cost follows the number of nonzero amplitudes rather than
2^n: a GHZ state has 2 terms and a W state n, whatever the register width.
A dense vector is just the full-support case.

Conventions:
- Qubit 0 is the leftmost label in ket notation, i.e. the most significant
  bit of a basis-state index.
- Measured qubits stay in the register, pinned to their outcome, so indices
  remain stable across a protocol run.
- All operations are pure: they return new StateVector instances.
- Only amplitudes that are exactly 0 leave the support. Float noise (say a
  1e-17 weight on a branch that is really impossible) stays, and the
  measurement rule ``_BRANCH_EPS`` deals with it exactly as a dense vector
  would.
- ``StateVector(n, support)`` is the one validating constructor: integer
  indices in range, norm within ``NORM_TOL``, exact zeros dropped. The
  results of gates, measurements, tensor products and ``embed`` are built
  unchecked by ``_state``.
- The dense view ``amplitudes`` refuses registers beyond
  ``MAX_DENSE_QUBITS`` before allocating anything.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-10      # norm / fidelity assertions
UNITARY_TOL = 1e-12   # constant gate matrices
_BRANCH_EPS = 1e-12   # probability below which a branch is treated as impossible
MAX_DENSE_QUBITS = 24  # dense views allocate 2^n entries: 256 MiB of complex at 24
_DRAW_BLOCK = 64      # uniforms ``RandomSource`` draws from numpy per call


class Basis(Enum):
    """Measurement bases: only the computational one; rotate a qubit to measure in another."""

    COMPUTATIONAL = "computational"


@dataclass(frozen=True, eq=False)
class Gate:
    """A single-qubit gate: a name plus its 2x2 unitary, checked once, as rows of ``complex``.

    Unitary means every entry of M^dagger M - I is within ``UNITARY_TOL`` of 0.
    """

    name: str
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self) -> None:
        try:
            rows = tuple(tuple(map(complex, row)) for row in self.matrix)
        except TypeError:  # a row that is a number, not a sequence
            rows = ()
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError(f"gate matrix must be 2x2, got {self.matrix!r}")
        cols = tuple(zip(*rows))
        if not all(
            abs(sum(x.conjugate() * y for x, y in zip(a, b)) - (j == k)) <= UNITARY_TOL
            for j, a in enumerate(cols)
            for k, b in enumerate(cols)
        ):
            raise ValueError(f"gate {self.name!r} is not unitary")
        object.__setattr__(self, "matrix", rows)


_SQ2 = 1.0 / math.sqrt(2.0)
HADAMARD = Gate("H", ((_SQ2, _SQ2), (_SQ2, -_SQ2)))
PAULI_X = Gate("X", ((0.0, 1.0), (1.0, 0.0)))
PAULI_Z = Gate("Z", ((1.0, 0.0), (0.0, -1.0)))


@dataclass(frozen=True, slots=True)
class StateVector:
    """Pure state over ``num_qubits`` labeled qubits (register indices 0..n-1).

    ``StateVector(n, {index: amplitude})`` takes the support; ``__post_init__``
    validates it and stores its nonzero terms.
    """

    num_qubits: int
    _support: Mapping[int, complex] = field(repr=False)

    def __post_init__(self) -> None:
        """Validate the support mapping and replace it by a dict of its nonzero terms."""
        n = as_int("num_qubits", self.num_qubits)
        if n < 1:
            raise ValueError("state needs at least one qubit")
        support = {_basis_index(i): complex(a) for i, a in self._support.items() if a != 0}
        for i in support:
            if not 0 <= i < 1 << n:
                raise ValueError(f"basis index {i} out of range for {n} qubits")
        norm = sum(abs(a) ** 2 for a in support.values())
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "_support", support)

    @classmethod
    def qubit(cls, alpha: complex, beta: complex) -> StateVector:
        """Single-qubit state alpha|0> + beta|1>; (alpha, beta) must be normalized."""
        return cls(1, {0: alpha, 1: beta})

    @property
    def support(self) -> Mapping[int, complex]:
        """Read-only view of the nonzero amplitudes, keyed by basis index."""
        return MappingProxyType(self._support)

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense, read-only vector of all 2^n amplitudes, built on each access."""
        n = self.num_qubits
        if n > MAX_DENSE_QUBITS:
            raise ValueError(
                f"dense amplitude vector over {n} qubits would hold 2^{n} entries; "
                f"dense views are limited to {MAX_DENSE_QUBITS} qubits"
            )
        amps = np.zeros(1 << n, dtype=complex)
        amps[np.fromiter(self._support, dtype=np.int64)] = list(self._support.values())
        amps.flags.writeable = False
        return amps

    def _mask(self, qubit: int) -> int:
        """The index bit that holds ``qubit``."""
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range for {self.num_qubits} qubits")
        return 1 << (self.num_qubits - 1 - qubit)


def _basis_index(i) -> int:
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"basis index {i!r} is not an integer") from None


def _index_with(num_qubits: int, bits: Mapping[int, int]) -> int:
    """The basis index with qubit q set wherever ``bits[q]`` is true, every other bit 0.

    ValueError for a qubit outside the register. Built once from a digit
    string, qubit q as character q, in O(num_qubits): setting one bit at a
    time would build a fresh int of up to num_qubits bits per qubit.
    """
    digits = bytearray(b"0" * num_qubits)
    for q, bit in bits.items():
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
        if bit:
            digits[q] = 0x31  # "1"
    return int(digits, 2)


def _state(num_qubits: int, support: dict[int, complex]) -> StateVector:
    """Unchecked construction for internal results that are normalized by design."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "num_qubits", num_qubits)
    object.__setattr__(state, "_support", support)
    return state


class RandomSource:
    """Deterministic stream of uniform reals; identical seed, identical stream.

    ``seed`` is a non-negative integer, or a ``(seed, trial)`` pair of them
    that keys trial ``trial`` of a seeded experiment. The pair draws the
    stream of numpy's ``SeedSequence(seed, spawn_key=(trial,))``, the child
    stream numpy spawns for ``trial``, so distinct pairs give independent
    streams. ``_for_trials`` builds the sources of many trials of one seed
    at once; a pair here is a block of one.

    ``random()`` returns the next uniform real in [0, 1). Draws are taken
    from numpy ``_DRAW_BLOCK`` at a time, on the first draw of each block,
    and served in order. numpy's ``random(k)`` yields the same values as
    ``k`` scalar ``random()`` calls, so the stream is the scalar one,
    however ``random`` and ``bit`` calls interleave.
    """

    def __init__(self, seed: int | tuple[int, int]):
        if isinstance(seed, tuple):
            base, trial = seed
            (gen,) = _trial_generators(self.check_seed(base), [self.check_seed(trial)])
        else:
            gen = np.random.default_rng(self.check_seed(seed))
        self._draw_from(gen)

    @classmethod
    def _for_trials(cls, seed: int, trials: Sequence[int]) -> Iterator[RandomSource]:
        """``RandomSource((seed, t))`` for each t of ``trials``, made in turn from one block."""
        for gen in _trial_generators(cls.check_seed(seed), trials):
            rng = object.__new__(cls)
            rng._draw_from(gen)
            yield rng

    def _draw_from(self, gen: np.random.Generator) -> None:
        self._gen = gen
        blocks = map(np.ndarray.tolist, map(gen.random, repeat(_DRAW_BLOCK)))
        # the stream's own ``__next__``: a draw is one call into C, with no Python frame
        self.random = chain.from_iterable(blocks).__next__

    @staticmethod
    def check_seed(seed: int) -> int:
        """``seed`` as a Python int; ValueError unless it is a non-negative integer."""
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        return operator.index(seed)

    def bit(self) -> int:
        """Next fair random bit, derived from the uniform stream."""
        return 1 if self.random() < 0.5 else 0


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): INIT_A and
# MULT_A hash entropy words into the pool, MIX_MULT_L and MIX_MULT_R mix them
# with pool words, INIT_B and MULT_B hash the pool out. All arithmetic is
# modulo 2**32; each hash step also xor-shifts by 16.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_CHUNK = 1024  # trials whose seed words one numpy pass derives


@functools.cache
def _hash_steps(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of hash steps ``start`` .. ``start + count - 1``.

    Step k xors with init·mult^k and multiplies by init·mult^(k+1), mod 2**32.
    """
    c = init * pow(mult, start, 1 << 32)
    consts = []
    for _ in range(count + 1):
        consts.append(c & 0xFFFFFFFF)
        c = (c & 0xFFFFFFFF) * mult
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False  # cached
    return consts[:-1], consts[1:]


@functools.cache
def _lane_hashes(steps: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash steps ``steps`` onward for ``words`` entropy words, shaped (words, 8).

    Row j holds word j's steps, one per pool lane, and repeats them for the
    lanes' second round in ``_trial_words``.
    """
    xor, mult = _hash_steps(_INIT_A, _MULT_A, steps, 4 * words)
    lanes = np.tile(xor.reshape(words, 4), 2), np.tile(mult.reshape(words, 4), 2)
    for c in lanes:
        c.flags.writeable = False
    return lanes


@functools.cache
def _numpy_random():
    """numpy's ``SeedSequence``, and a factory of PCG64 generators seeded with given words.

    Imported on first use: importing the package leaves ``numpy.random``
    unloaded, since the oracle never draws.
    """
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        """A seed sequence whose output is given: PCG64 seeds itself from ``words``."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    def generator(words: np.ndarray) -> Generator:
        return Generator(PCG64(GivenState(words)))

    return SeedSequence, generator


def _trial_generators(seed: int, trials: Sequence[int]) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence(seed, spawn_key=(t,)))`` for each t of ``trials``, in turn.

    Draw for draw the same generators, but ``SeedSequence(seed)`` is built
    once, the PCG64 seed words of ``_SEED_CHUNK`` trials at a time come from
    one pass of ``_trial_words``, and each generator is made when it is
    reached. Each trial must be a non-negative integer, as ``check_seed``
    checks; a ``range`` holds only integers, and its negative ones fail in
    ``_trial_words``.
    """
    if not isinstance(trials, range):
        trials = [RandomSource.check_seed(t) for t in trials]
    seed_sequence, generator = _numpy_random()
    pool = seed_sequence(seed).pool
    pool = np.concatenate((pool, pool))  # the four lanes twice round
    # the seed's w words (padded to the pool's 4) and the all-pairs mix take 4·max(w, 4) steps
    steps = 4 * max(4, -(-seed.bit_length() // 32))
    for start in range(0, len(trials), _SEED_CHUNK):
        yield from map(generator, _trial_words(pool, steps, trials[start:start + _SEED_CHUNK]))


def _trial_words(pool: np.ndarray, steps: int, trials: Sequence[int]) -> np.ndarray:
    """Row i is ``SeedSequence(seed, spawn_key=(trials[i],)).generate_state(4, np.uint64)``.

    ``pool`` is ``SeedSequence(seed).pool`` twice round, its four lanes
    mixed by the first ``steps`` hash steps. numpy's entropy mix takes a
    spawn key's words after the seed's: each word, lowest first, is hashed
    once per lane and mixed into it. Here each word position is a column
    over the trials, hashed into all lanes at once; a trial with fewer
    words keeps its lanes past its last one. ``generate_state``'s output
    hash then turns the lanes, read twice round, into eight 32-bit words,
    two to each uint64, low word first.
    """
    try:
        columns = [np.array(trials, dtype=np.uint32)]
    except OverflowError:  # a trial of 2**32 or more, or a negative one, which check_seed rejects
        widths = [max(1, -(-RandomSource.check_seed(t).bit_length() // 32)) for t in trials]
        columns = [
            np.array([t >> 32 * j & 0xFFFFFFFF for t in trials], dtype=np.uint32)
            for j in range(max(widths))
        ]
        widths = np.array(widths)
    xor, mult = _lane_hashes(steps, len(columns))
    for j, column in enumerate(columns):
        hashed = column[:, None] ^ xor[j]
        hashed *= mult[j]
        hashed ^= hashed >> 16
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        pool = mixed if j == 0 else np.where((widths > j)[:, None], mixed, pool)
    out_xor, out_mult = _hash_steps(_INIT_B, _MULT_B, 0, 8)
    pool ^= out_xor
    pool *= out_mult
    pool ^= pool >> 16
    # little-endian pairs to native uint64, as generate_state does: a no-op on x86 and ARM
    return pool.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def as_int(name: str, value) -> int:
    """``value`` as a Python int; ValueError unless it is an integer (numpy's count)."""
    if type(value) is int:  # the common case, without the abstract-class check
        return value
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Joint register with a's qubits first (most significant index bits)."""
    shift = b.num_qubits
    support = {}
    for i, x in a._support.items():
        for j, y in b._support.items():
            amp = x * y
            if amp:
                support[(i << shift) | j] = amp
    return _state(a.num_qubits + b.num_qubits, support)


def product_state(qubit_states: Sequence[Sequence[complex]]) -> StateVector:
    """Product state from per-qubit (alpha, beta) pairs, qubit 0 first."""
    support = {0: 1.0}
    for pair in qubit_states:
        alpha, beta = map(complex, pair)
        grown = {}
        for i, amp in support.items():
            if alpha:
                grown[i << 1] = amp * alpha
            if beta:
                grown[(i << 1) | 1] = amp * beta
        support = grown
    return StateVector(len(qubit_states), support)


def embed(
    local: StateVector, qubits: Sequence[int], num_qubits: int, pinned: Mapping[int, int]
) -> StateVector:
    """``local`` inside a ``num_qubits`` register, its qubit j on qubit ``qubits[j]``.

    Every other qubit holds its bit in ``pinned``, or 0 if absent. Distinct
    ``qubits`` map the validated ``local`` support one-to-one onto register
    indices, so the result skips validation.
    """
    if len(qubits) != local.num_qubits:
        raise ValueError(f"{len(qubits)} register qubits for a {local.num_qubits}-qubit state")
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    num_qubits = as_int("num_qubits", num_qubits)
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
    top = num_qubits - 1
    moves = [(local.num_qubits - 1 - j, 1 << (top - q)) for j, q in enumerate(qubits)]
    base = _index_with(num_qubits, pinned)  # checks the pinned qubits' range
    for _, mask in moves:
        if base & mask:  # an embedded qubit takes its bit from ``local``, not from a pin
            base ^= mask
    support = {}
    for i, a in local._support.items():
        index = base
        for shift, mask in moves:
            if (i >> shift) & 1:
                index |= mask
        support[index] = a
    return _state(num_qubits, support)


def apply_single(state: StateVector, qubit: int, gate: Gate) -> StateVector:
    """Apply a 2x2 gate to one qubit, pairing each index with its partner across the bit."""
    bit = state._mask(qubit)
    (m00, m01), (m10, m11) = gate.matrix
    old = state._support
    support = {}
    for i, amp in old.items():
        if i & bit:
            low = i ^ bit
            if low in old:
                continue  # handled with its partner
            new0, new1 = m01 * amp, m11 * amp
        else:
            low = i
            partner = old.get(i | bit)
            if partner is None:
                new0, new1 = m00 * amp, m10 * amp
            else:
                new0, new1 = m00 * amp + m01 * partner, m10 * amp + m11 * partner
        if new0:
            support[low] = new0
        if new1:
            support[low | bit] = new1
    return _state(state.num_qubits, support)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` on basis states where ``control`` is 1."""
    if control == target:
        raise ValueError("control and target must differ")
    c_bit = state._mask(control)
    t_bit = state._mask(target)
    support = {(i ^ t_bit if i & c_bit else i): amp for i, amp in state._support.items()}
    return _state(state.num_qubits, support)


def _branch_weights(state: StateVector, qubit: int) -> tuple[float, float]:
    """(p0, p1): the weights of the two branches of ``qubit``, in one pass.

    Each is summed in support order, as ``sum`` over that branch would.
    """
    bit = state._mask(qubit)
    p0 = p1 = 0.0
    for i, a in state._support.items():
        if i & bit:
            p1 += abs(a) ** 2
        else:
            p0 += abs(a) ** 2
    return p0, p1


def _sample(p0: float, rng: RandomSource) -> int:
    """One outcome bit, 0 with probability ``p0``, from one draw: the one sampling rule.

    The draw reads 0 below ``p0`` and 1 otherwise. Float noise can leave a
    ~1e-17 weight on a branch that is really impossible, so a reading whose
    branch weighs at most ``_BRANCH_EPS`` (``p0`` for 0, ``1 - p0`` for 1)
    flips to the other outcome: that branch is never sampled.
    """
    if rng.random() < p0:
        return 1 if p0 <= _BRANCH_EPS else 0
    return 0 if 1.0 - p0 <= _BRANCH_EPS else 1


def _zero_branch(qubit: int, outcome: int, prob: float) -> ValueError:
    return ValueError(f"zero-probability branch: qubit {qubit} -> {outcome} (p = {prob!r})")


def _sample_branch(qubit: int, p0: float, p1: float, rng: RandomSource) -> int:
    """``_sample(p0, rng)``; ``_zero_branch`` if the outcome's branch, of weight
    ``p0`` or ``p1``, is impossible."""
    outcome = _sample(p0, rng)
    prob = p1 if outcome else p0
    if prob <= _BRANCH_EPS:
        raise _zero_branch(qubit, outcome, prob)
    return outcome


def _project(state: StateVector, qubit: int, outcome: int, prob: float) -> StateVector:
    """Collapse ``qubit`` onto ``outcome``, a possible branch of weight ``prob``."""
    bit = state._mask(qubit)
    want = bit if outcome else 0
    root = math.sqrt(prob)
    support = {i: a / root for i, a in state._support.items() if i & bit == want}
    return _state(state.num_qubits, support)


def measure(state: StateVector, qubit: int, rng: RandomSource) -> tuple[int, StateVector]:
    """Computational-basis measurement of one qubit: (outcome bit, post-state).

    One draw, sampled by ``_sample``, the rule every sampled measurement uses.
    The measured qubit stays in the register. For another basis, rotate the
    qubit first: ``apply_single(state, qubit, HADAMARD)`` and then
    ``measure`` is a Hadamard-basis measurement.
    """
    p0, p1 = _branch_weights(state, qubit)
    outcome = _sample_branch(qubit, p0, p1, rng)
    return outcome, _project(state, qubit, outcome, p1 if outcome else p0)


def enumerate_branches(
    state: StateVector, qubits: Sequence[int], bases: Sequence[Basis]
) -> list[tuple[tuple[int, ...], float, StateVector]]:
    """All joint computational-basis branches over ``qubits``, zero-probability ones omitted.

    ``bases`` names each qubit's basis, ``Basis.COMPUTATIONAL`` for every one.
    Returns (outcome bit-vector, probability, post-state) triples; the
    probabilities of the returned branches sum to 1.
    """
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    if list(bases) != [Basis.COMPUTATIONAL] * len(qubits):
        raise ValueError("one basis per measured qubit required, each Basis.COMPUTATIONAL")
    branches: list[tuple[tuple[int, ...], float, StateVector]] = [((), 1.0, state)]
    for qubit in qubits:
        expanded = []
        for outcomes, prob, st in branches:
            for outcome, p in enumerate(_branch_weights(st, qubit)):
                if p <= _BRANCH_EPS:
                    continue
                post = _project(st, qubit, outcome, p)
                expanded.append((outcomes + (outcome,), prob * p, post))
        branches = expanded
    return branches


def fidelity(state: StateVector, reference: StateVector) -> float:
    """Squared overlap |<reference|state>|^2, summed over the shared support."""
    if state.num_qubits != reference.num_qubits:
        raise ValueError(
            f"dimension mismatch: {state.num_qubits} vs {reference.num_qubits} qubits"
        )
    ref = reference._support
    overlap = sum(ref[i].conjugate() * a for i, a in state._support.items() if i in ref)
    return float(abs(overlap) ** 2)


def haar_qubit(rng: RandomSource) -> StateVector:
    """Single-qubit state drawn uniformly from the Bloch sphere."""
    return bloch_qubit(rng.random(), rng.random())  # arguments draw left to right


def bloch_qubit(u: float, v: float) -> StateVector:
    """The ``haar_qubit`` state for its two uniform draws ``u`` then ``v``."""
    cos_theta = 2.0 * u - 1.0
    phi = 2.0 * math.pi * v
    half = 0.5 * math.acos(cos_theta)
    return StateVector.qubit(math.cos(half), cmath.exp(1j * phi) * math.sin(half))
