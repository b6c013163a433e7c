"""Non-deterministic random test generator.

Implements the "random test generator based on [9-10]" used by the multiple
trip point procedure (section 3, fig. 2).  The generator is seeded and fully
reproducible; it mixes several stimulus *styles* so that the random test
population explores qualitatively different activity profiles:

``uniform``
    Independent uniform operations, addresses and data every cycle.
``burst``
    Alternating read/write bursts at a random base address — high
    read-after-write and turnaround activity.
``sweep``
    Linear address sweeps with random stride — march-like regular activity.
``hammer``
    Repeated accesses to a tiny address set — row-hammer style locality.
``toggle``
    Data-bus worst-case toggling (AA/55-style alternation) at random
    addresses — high switching-noise profile.

A pure ``uniform`` generator finds mediocre worst cases; the style mix is
what gives the NN a learnable spread of activity profiles, mirroring the
"non-deterministic random tests, such as bus control signals in real
application board" of section 3.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import (
    DEFAULT_ADDR_BITS,
    DEFAULT_DATA_BITS,
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    OP_NOP,
    OP_READ,
    OP_WRITE,
    VectorSequence,
)

#: A builder's ``(ops, addresses, data)`` column lists.
Columns = Tuple[List[int], List[int], List[int]]

#: Stimulus styles and their default mixing weights.
STYLES: Tuple[Tuple[str, float], ...] = (
    ("uniform", 0.30),
    ("burst", 0.20),
    ("sweep", 0.15),
    ("hammer", 0.15),
    ("toggle", 0.20),
)


class RandomTestGenerator:
    """Seeded generator of random :class:`~repro.patterns.testcase.TestCase`.

    Parameters
    ----------
    seed:
        RNG seed; two generators with the same seed emit identical streams.
    condition_space:
        Admissible environmental region; ``None`` pins every test to the
        nominal condition (pattern-only studies, e.g. the fig. 2 bench).
    addr_bits, data_bits:
        DUT bus geometry.
    min_cycles, max_cycles:
        Sequence length bounds (paper: 100-1000).
    """

    def __init__(
        self,
        seed: int = 0,
        condition_space: Optional[ConditionSpace] = None,
        addr_bits: int = DEFAULT_ADDR_BITS,
        data_bits: int = DEFAULT_DATA_BITS,
        min_cycles: int = MIN_SEQUENCE_CYCLES,
        max_cycles: int = MAX_SEQUENCE_CYCLES,
    ) -> None:
        if min_cycles < 1 or max_cycles < min_cycles:
            raise ValueError("need 1 <= min_cycles <= max_cycles")
        self._rng = np.random.default_rng(seed)
        self.condition_space = condition_space
        self.addr_bits = addr_bits
        self.data_bits = data_bits
        self.min_cycles = min_cycles
        self.max_cycles = max_cycles
        self._counter = 0

    # -- public API ----------------------------------------------------------
    def generate(self, style: Optional[str] = None) -> TestCase:
        """Emit the next random test case.

        ``style`` forces a stimulus style; by default the style is drawn from
        the :data:`STYLES` mixing weights.
        """
        rng = self._rng
        if style is None:
            names = [name for name, _ in STYLES]
            weights = np.array([w for _, w in STYLES])
            style = str(rng.choice(names, p=weights / weights.sum()))
        cycles = int(rng.integers(self.min_cycles, self.max_cycles + 1))
        builder = getattr(self, f"_build_{style}", None)
        if builder is None:
            raise ValueError(f"unknown stimulus style {style!r}")
        columns = builder(rng, cycles)
        name = f"rnd_{self._counter:05d}_{style}"
        self._counter += 1
        sequence = VectorSequence(
            addr_bits=self.addr_bits, data_bits=self.data_bits, name=name, columns=columns
        )
        if self.condition_space is not None:
            condition = self.condition_space.sample(rng)
        else:
            condition = NOMINAL_CONDITION
        return TestCase(sequence, condition, name=name, origin="random")

    def batch(self, count: int) -> List[TestCase]:
        """Emit ``count`` test cases."""
        return [self.generate() for _ in range(count)]

    def stream(self) -> Iterator[TestCase]:
        """Endless test-case stream (learning scheme step 1, fig. 4)."""
        while True:
            yield self.generate()

    # -- style builders --------------------------------------------------------
    # Each builder returns ``(ops, addresses, data)`` column lists.  The
    # order of ``rng`` calls is part of every seed's output: keep it.
    def _rand_addr(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.addr_bits))

    def _rand_data(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.data_bits))

    def _build_uniform(self, rng: np.random.Generator, cycles: int) -> Columns:
        picks = rng.choice(3, size=cycles, p=[0.45, 0.45, 0.10])
        ops = [(OP_READ, OP_WRITE, OP_NOP)[pick] for pick in picks]
        addresses, data = [], []
        for _ in ops:
            addresses.append(self._rand_addr(rng))
            data.append(self._rand_data(rng))
        return ops, addresses, data

    def _build_burst(self, rng: np.random.Generator, cycles: int) -> Columns:
        ops, addresses, data = [], [], []
        while len(ops) < cycles:
            base = self._rand_addr(rng)
            burst = int(rng.integers(2, 9))
            word = self._rand_data(rng)
            for offset in range(burst):
                addr = (base + offset) % (1 << self.addr_bits)
                ops += [OP_WRITE, OP_READ]
                addresses += [addr, addr]
                data += [word ^ offset, 0]
        return ops[:cycles], addresses[:cycles], data[:cycles]

    def _build_sweep(self, rng: np.random.Generator, cycles: int) -> Columns:
        stride = int(rng.integers(1, 17))
        addr = self._rand_addr(rng)
        word = self._rand_data(rng)
        write_phase = bool(rng.integers(0, 2))
        ops, addresses = [], []
        for _ in range(cycles):
            ops.append(OP_WRITE if write_phase else OP_READ)
            addresses.append(addr)
            addr = (addr + stride) % (1 << self.addr_bits)
            if rng.random() < 0.02:
                write_phase = not write_phase
        return ops, addresses, [word] * cycles

    def _build_hammer(self, rng: np.random.Generator, cycles: int) -> Columns:
        hot = [self._rand_addr(rng) for _ in range(int(rng.integers(1, 4)))]
        ops, data = [], []
        for _ in range(cycles):
            if rng.random() < 0.5:
                ops.append(OP_WRITE)
                data.append(self._rand_data(rng))
            else:
                ops.append(OP_READ)
                data.append(0)
        return ops, [hot[i % len(hot)] for i in range(cycles)], data

    def _build_toggle(self, rng: np.random.Generator, cycles: int) -> Columns:
        mask = (1 << self.data_bits) - 1
        word = int(rng.integers(0, 1 << self.data_bits))
        half = 1 << (self.addr_bits - 1)
        addr = self._rand_addr(rng)
        addresses, data = [], []
        for i in range(cycles):
            word ^= mask  # AA/55-style full-bus toggle
            addr ^= half if i % 2 else int(rng.integers(0, 1 << self.addr_bits))
            addr &= (1 << self.addr_bits) - 1
            addresses.append(addr)
            data.append(word)
        return [OP_WRITE] * cycles, addresses, data
