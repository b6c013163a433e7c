"""The benchmark's workloads: inputs built from a seed, one timed call each.

A workload is used in three steps:

1. ``Workload(seed)`` builds the inputs (test decks) from the seed and
   imports everything the pass needs — this is the benchmark's set-up;
2. :meth:`Workload.fresh` builds the per-pass state a user would build
   (chip, tester, characterizer) and returns the call to time;
3. :meth:`Workload.finish` turns the call's return value into a
   :class:`PassOutput`: the artifact bytes a user sees, the tester
   measurements charged and the worst case found.

Every pass starts from fresh state, so every pass of one seed does the
same work and must produce the same artifact bytes.
"""

from __future__ import annotations

import copy
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Type

import numpy as np

from repro.core.characterizer import DeviceCharacterizer
from repro.core.learning import LearningConfig
from repro.core.lot import LotCharacterizer
from repro.core.optimization import OptimizationConfig
from repro.ga.engine import GAConfig
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import STYLES, RandomTestGenerator
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import MAX_SEQUENCE_CYCLES, MIN_SEQUENCE_CYCLES

#: Characterization range the CLI uses for the lot and the screen.
SEARCH_RANGE = (15.0, 45.0)


@dataclass(frozen=True)
class PassOutput:
    """What one pass produced, as a user of the program sees it."""

    artifact: bytes
    ate_probes: int
    worst_wcr: float


def stratified_deck(seed: int, count: int) -> List[TestCase]:
    """``count`` random tests whose lengths and styles are stratified.

    Lengths are evenly spaced over the generator's 100-1000 cycle range
    and styles follow its mixing weights exactly; the seed shuffles both
    and drives every vector.  A plain random deck of 40 tests varies by
    about a tenth in total cycles from seed to seed, which would show as
    run-to-run spread of the time metrics; stratifying removes that part
    while keeping the paper's length range and style mix.
    """
    shuffle = np.random.default_rng(seed)
    lengths = np.rint(
        np.linspace(MIN_SEQUENCE_CYCLES, MAX_SEQUENCE_CYCLES, count)
    ).astype(int)
    weights = np.array([weight for _, weight in STYLES])
    quota = weights / weights.sum() * count
    per_style = np.floor(quota).astype(int)
    for index in np.argsort(per_style - quota)[: count - per_style.sum()]:
        per_style[index] += 1
    styles = [name for (name, _), n in zip(STYLES, per_style) for _ in range(n)]
    generator = RandomTestGenerator(seed=seed)
    deck = []
    for length, style in zip(shuffle.permutation(lengths), shuffle.permutation(styles)):
        generator.min_cycles = generator.max_cycles = int(length)
        deck.append(generator.generate(style=str(style)).with_condition(NOMINAL_CONDITION))
    return deck


class Workload:
    """Base class: a named workload over inputs built from one seed."""

    name = ""
    #: Forked pool workers per pass (0 = everything runs in this process).
    workers = 0
    #: Workload whose recorded digests this one's artifacts must match.
    digest_of = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fresh(self) -> Callable[[], Any]:
        """Build per-pass state; return the call to time."""
        raise NotImplementedError

    def finish(self, raw: Any) -> PassOutput:
        """The user-visible output of one pass."""
        raise NotImplementedError


class Table1(Workload):
    """Table 1 (march vs random vs NN+GA) at the CLI's ``--fast`` budgets.

    One pass runs ``tables`` Table 1 campaigns, each on its own device and
    characterizer seed derived from the workload seed.  The NN's and the
    GA's path, and with it one campaign's work, varies by about a tenth
    from seed to seed; averaging campaigns keeps that out of the
    run-to-run spread.
    """

    name = "table1"

    def __init__(
        self, seed: int, tables: int = 2, random_tests: int = 300, scale: float = 1.0
    ) -> None:
        super().__init__(seed)
        self.campaign_seeds = [seed * tables + i for i in range(tables)]
        self.random_tests = random_tests
        self.learning = LearningConfig(
            tests_per_round=max(40, int(100 * scale)),
            max_rounds=1,
            max_epochs=max(5, int(60 * scale)),
            n_networks=3,
            pin_condition=NOMINAL_CONDITION,
        )
        self.optimization = OptimizationConfig(
            ga=GAConfig(
                population_size=max(4, int(12 * scale)),
                n_populations=2,
                max_generations=max(2, int(15 * scale)),
            ),
            n_seeds=max(2, int(8 * scale)),
            seed_pool_size=max(8, int(120 * scale)),
            pin_condition=NOMINAL_CONDITION,
        )

    def fresh(self):
        campaigns = [
            (
                DeviceCharacterizer.with_default_setup(seed=seed),
                replace(self.learning, seed=seed),
                replace(self.optimization, seed=seed),
            )
            for seed in self.campaign_seeds
        ]

        def call():
            return [
                (
                    characterizer.run_table1_comparison(
                        random_tests=self.random_tests,
                        learning_config=learning,
                        optimization_config=optimization,
                    ),
                    characterizer.ate.measurement_count,
                )
                for characterizer, learning, optimization in campaigns
            ]

        return call

    def finish(self, raw) -> PassOutput:
        return PassOutput(
            artifact="\n\n".join(report.to_text() for report, _ in raw).encode(),
            ate_probes=sum(probes for _, probes in raw),
            worst_wcr=max(float(report.rows[-1].wcr) for report, _ in raw),
        )


class Lot(Workload):
    """A lot of sampled dies sharing one test deck, SUTP, serial farm."""

    name = "lot"

    def __init__(self, seed: int, dies: int = 16, tests: int = 40) -> None:
        super().__init__(seed)
        self.dies = dies
        self.deck = stratified_deck(seed, tests)

    def fresh(self):
        lot = LotCharacterizer(search_range=SEARCH_RANGE, seed=self.seed)
        workers = self.workers or None
        return lambda: lot.run(self.deck, n_dies=self.dies, workers=workers)

    def finish(self, raw) -> PassOutput:
        database = raw.to_database(self.deck)
        # The artifact is the exported file itself, written where the
        # benchmark runs.
        with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench-") as tmp:
            path = os.path.join(tmp, "wcdb.json")
            database.export_json(path)
            with open(path, "rb") as handle:
                artifact = handle.read()
        return PassOutput(
            artifact=artifact,
            ate_probes=sum(die.measurements for die in raw.dies),
            worst_wcr=float(raw.worst_die().worst_wcr),
        )


class LotFarm(Lot):
    """The ``lot`` inputs on the process backend with two workers."""

    name = "lot_farm"
    workers = 2
    digest_of = "lot"

    def serial_twin(self) -> Lot:
        """The same inputs on the serial backend: the artifact to match."""
        twin = copy.copy(self)
        twin.workers = 0
        return twin


class Screen(Workload):
    """Fig. 6 WCR screen: one 601-strobe batch per test."""

    name = "screen"

    def __init__(self, seed: int, tests: int = 200, strobe_step: float = 0.05) -> None:
        super().__init__(seed)
        self.deck = stratified_deck(seed, tests)
        self.strobe_step = strobe_step

    def fresh(self):
        characterizer = DeviceCharacterizer.with_default_setup(seed=self.seed)
        return lambda: characterizer.wcr_screen(self.deck, strobe_step=self.strobe_step)

    def finish(self, raw) -> PassOutput:
        return PassOutput(
            artifact=raw.render().encode(),
            ate_probes=raw.measurements,
            worst_wcr=max(entry.wcr for entry in raw.entries if entry.wcr is not None),
        )


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (Table1, Lot, LotFarm, Screen)
}
