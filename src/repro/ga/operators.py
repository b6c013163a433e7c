"""GA variation operators, per chromosome species.

Sequence chromosome
    * single-point **splice crossover** between two parents' sequences;
    * **point mutation** — rewrite individual cycles with random operations;
    * **motif mutation** — overwrite a random segment with a coherent
      stimulus motif (full-bus toggle burst, same-address read-after-write
      pairs, MSB-hopping writes).  Motifs give the GA composable activity
      building blocks, which is what lets it assemble block-structured
      worst-case patterns no uniform random test contains.

Condition chromosome
    * **blend crossover** (arithmetic mix with a random coefficient);
    * **Gaussian mutation** with clipping to ``[0, 1]``.

Selection is k-tournament on fitness (higher fitness = closer to the
characterization objective's worst case).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ga.chromosome import TestIndividual
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    OP_NOP,
    OP_READ,
    OP_WRITE,
    VectorSequence,
)

#: Names of the available sequence motifs.
MOTIF_NAMES = ("toggle_burst", "raw_pairs", "msb_hop")


# -- selection --------------------------------------------------------------------
def tournament_select(
    population: Sequence[TestIndividual],
    rng: np.random.Generator,
    k: int = 3,
) -> TestIndividual:
    """k-tournament: best fitness among k uniform picks.

    Unevaluated individuals lose every tournament against evaluated ones.
    """
    if not population:
        raise ValueError("cannot select from an empty population")
    k = min(k, len(population))
    picks = rng.choice(len(population), size=k, replace=False)
    contenders = [population[i] for i in picks]
    return max(
        contenders,
        key=lambda ind: ind.fitness if ind.fitness is not None else -np.inf,
    )


# -- sequence species ------------------------------------------------------------
def crossover_sequences(
    a: VectorSequence,
    b: VectorSequence,
    rng: np.random.Generator,
) -> Tuple[VectorSequence, VectorSequence]:
    """Single-point splice producing two children."""
    cut_a = int(rng.integers(1, len(a)))
    cut_b = int(rng.integers(1, len(b)))
    return a.spliced(b, cut_a, cut_b), b.spliced(a, cut_b, cut_a)


Cycle = Tuple[int, int, int]  # (op code, address, data)


def _random_cycle(rng: np.random.Generator, addr_bits: int, data_bits: int) -> Cycle:
    return (
        (OP_READ, OP_WRITE, OP_NOP)[rng.choice(3, p=[0.45, 0.45, 0.10])],
        int(rng.integers(0, 1 << addr_bits)),
        int(rng.integers(0, 1 << data_bits)),
    )


def _with_cycles(
    sequence: VectorSequence, index: object, cycles: Sequence[Cycle], length: int
) -> VectorSequence:
    """Copy of ``sequence`` with ``cycles`` written at ``index`` (which may
    reach past its end), cut to ``length``."""
    values = list(zip(*cycles)) or [(), (), ()]
    columns = []
    for column, new in zip(sequence.columns, values):
        out = np.zeros(max(length, len(column)), dtype=column.dtype)
        out[: len(column)] = column
        out[index] = new
        columns.append(out[:length])
    return VectorSequence(
        (), sequence.addr_bits, sequence.data_bits, sequence.name, columns=columns
    )


def point_mutate_sequence(
    sequence: VectorSequence,
    rng: np.random.Generator,
    rate: float = 0.02,
) -> VectorSequence:
    """Rewrite each cycle independently with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    hits, cycles = [], []
    for i in range(len(sequence)):
        if rng.random() < rate:
            hits.append(i)
            cycles.append(_random_cycle(rng, sequence.addr_bits, sequence.data_bits))
    if not hits:
        return sequence
    return _with_cycles(sequence, hits, cycles, len(sequence))


# -- motifs ----------------------------------------------------------------------
def _motif_toggle_burst(
    rng: np.random.Generator, length: int, addr_bits: int, data_bits: int
) -> List[Cycle]:
    """Hot window: full data-bus and address-bus toggling writes."""
    mask = (1 << data_bits) - 1
    full = (1 << addr_bits) - 1
    word = int(rng.integers(0, 1 << data_bits))
    addr = int(rng.integers(0, 1 << addr_bits))
    out = []
    for _ in range(length):
        word ^= mask
        addr ^= full
        out.append((OP_WRITE, addr, word))
    return out


def _motif_raw_pairs(
    rng: np.random.Generator, length: int, addr_bits: int, data_bits: int
) -> List[Cycle]:
    """Same-address write-then-read pairs with MSB-hopping addresses."""
    half = 1 << (addr_bits - 1)
    mask = (1 << data_bits) - 1
    word = int(rng.integers(0, 1 << data_bits))
    addr = int(rng.integers(0, 1 << addr_bits))
    out: List[Cycle] = []
    while len(out) < length:
        word ^= mask
        addr ^= half
        out.append((OP_WRITE, addr, word))
        out.append((OP_READ, addr, 0))
    return out[:length]


def _motif_msb_hop(
    rng: np.random.Generator, length: int, addr_bits: int, data_bits: int
) -> List[Cycle]:
    """Writes hopping between the two address halves every cycle."""
    half = 1 << (addr_bits - 1)
    addr = int(rng.integers(0, 1 << addr_bits))
    out = []
    for _ in range(length):
        addr ^= half
        data = int(rng.integers(0, 1 << data_bits))
        out.append((OP_WRITE, addr, data))
    return out


_MOTIF_BUILDERS = {
    "toggle_burst": _motif_toggle_burst,
    "raw_pairs": _motif_raw_pairs,
    "msb_hop": _motif_msb_hop,
}


def motif_mutate_sequence(
    sequence: VectorSequence,
    rng: np.random.Generator,
    min_length: int = 16,
    max_length: int = 96,
) -> VectorSequence:
    """Overwrite a random segment with a random stimulus motif."""
    name = str(rng.choice(MOTIF_NAMES))
    length = int(rng.integers(min_length, max_length + 1))
    length = min(length, len(sequence))
    start = int(rng.integers(0, len(sequence) - length + 1))
    motif = _MOTIF_BUILDERS[name](
        rng, length, sequence.addr_bits, sequence.data_bits
    )
    end = min(len(sequence), MAX_SEQUENCE_CYCLES)
    return _with_cycles(sequence, slice(start, start + length), motif, end)


def resize_mutate_sequence(
    sequence: VectorSequence,
    rng: np.random.Generator,
    max_change: int = 64,
) -> VectorSequence:
    """Grow or shrink the sequence within the paper's 100-1000 cycle bounds."""
    change = int(rng.integers(-max_change, max_change + 1))
    target = int(
        np.clip(len(sequence) + change, MIN_SEQUENCE_CYCLES, MAX_SEQUENCE_CYCLES)
    )
    grown = [
        _random_cycle(rng, sequence.addr_bits, sequence.data_bits)
        for _ in range(target - len(sequence))
    ]
    return _with_cycles(sequence, slice(len(sequence), target), grown, target)


# -- condition species --------------------------------------------------------------
def crossover_conditions(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Arithmetic blend with a uniform mixing coefficient per child."""
    alpha = rng.random()
    child1 = alpha * a + (1.0 - alpha) * b
    child2 = (1.0 - alpha) * a + alpha * b
    return np.clip(child1, 0.0, 1.0), np.clip(child2, 0.0, 1.0)


def mutate_conditions(
    genes: np.ndarray, rng: np.random.Generator, sigma: float = 0.08
) -> np.ndarray:
    """Gaussian perturbation of all genes, clipped to ``[0, 1]``."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    return np.clip(genes + rng.normal(0.0, sigma, size=genes.shape), 0.0, 1.0)
