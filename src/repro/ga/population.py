"""One GA population.

Holds a fixed-size list of evaluated individuals, sorted access to the
elite, and generation bookkeeping.  The multi-population engine owns several
of these and migrates individuals between them.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ga.chromosome import TestIndividual


class Population:
    """A named, fixed-size population of individuals."""

    def __init__(
        self, name: str, individuals: Sequence[TestIndividual]
    ) -> None:
        if not individuals:
            raise ValueError("a population needs at least one individual")
        self.name = name
        self.individuals: List[TestIndividual] = list(individuals)
        self.generation = 0
        self.best_history: List[float] = []

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self):
        return iter(self.individuals)

    @property
    def size(self) -> int:
        """Population size."""
        return len(self.individuals)

    def _fitness_or_worst(self, individual: TestIndividual) -> float:
        return individual.fitness if individual.fitness is not None else -np.inf

    def best(self) -> TestIndividual:
        """Fittest individual (unevaluated ones rank last)."""
        return max(self.individuals, key=self._fitness_or_worst)

    def elite(self, count: int) -> List[TestIndividual]:
        """The ``count`` fittest individuals, best first."""
        if count < 0:
            raise ValueError("elite count must be >= 0")
        ranked = sorted(self.individuals, key=self._fitness_or_worst, reverse=True)
        return ranked[:count]

    def worst_indices(self, count: int) -> List[int]:
        """Indices of the ``count`` least fit individuals (migration slots)."""
        order = sorted(
            range(len(self.individuals)),
            key=lambda i: self._fitness_or_worst(self.individuals[i]),
        )
        return order[:count]

    def replace(self, new_individuals: Sequence[TestIndividual]) -> None:
        """Install the next generation (size must be preserved)."""
        if len(new_individuals) != len(self.individuals):
            raise ValueError(
                f"generation size {len(new_individuals)} != population size "
                f"{len(self.individuals)}"
            )
        self.individuals = list(new_individuals)
        self.generation += 1
        self.best_history.append(self._fitness_or_worst(self.best()))

    def mean_fitness(self) -> float:
        """Mean fitness over evaluated individuals (``nan`` if none)."""
        values = [
            ind.fitness for ind in self.individuals if ind.fitness is not None
        ]
        return float(np.mean(values)) if values else float("nan")

    def fitness_std(self) -> float:
        """Fitness standard deviation over evaluated individuals."""
        values = [
            ind.fitness for ind in self.individuals if ind.fitness is not None
        ]
        return float(np.std(values)) if len(values) >= 2 else 0.0

    def sequence_diversity(self) -> float:
        """Sequence-chromosome spread: mean normalized Hamming distance.

        Each individual's vector sequence is compared cycle-by-cycle
        against the population best's; differing cycles and any length
        difference both count as mismatches, normalized by the longer
        sequence.  0 means every sequence equals the best's; 1 means no
        cycle agrees anywhere.
        """
        reference = self.best().sequence
        distances = []
        for individual in self.individuals:
            sequence = individual.sequence
            common = min(len(reference), len(sequence))
            differs = np.zeros(common, dtype=bool)
            for mine, theirs in zip(reference.columns, sequence.columns):
                differs |= mine[:common] != theirs[:common]
            mismatches = np.count_nonzero(differs) + abs(len(reference) - len(sequence))
            distances.append(mismatches / max(len(reference), len(sequence)))
        return float(np.mean(distances))

    def condition_diversity(self) -> float:
        """Condition-chromosome spread: mean absolute gene deviation."""
        genes = np.stack(
            [individual.condition_genes for individual in self.individuals]
        )
        return float(np.mean(np.abs(genes - genes.mean(axis=0))))

    def stagnant_for(self, patience: int, tolerance: float = 1e-6) -> bool:
        """True when the best fitness has not improved for ``patience`` gens."""
        if len(self.best_history) < patience + 1:
            return False
        recent = self.best_history[-(patience + 1) :]
        return max(recent[1:]) <= recent[0] + tolerance
