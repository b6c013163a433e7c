"""User-facing façade: full device characterization campaigns.

:class:`DeviceCharacterizer` owns a tester and exposes the three
characterization approaches the paper compares in Table 1 —

* **deterministic** — a march test, single trip point (section 1's
  conventional flow);
* **random** — the multiple-trip-point concept over N random tests
  (section 3);
* **intelligent (NN+GA)** — the full fig. 4 learning + fig. 5 optimization
  pipeline (section 5);

plus the shmoo overlay of fig. 8 and the Table-1 report builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.reporting import Table1Report, Table1Row
from repro.ate.shmoo import ShmooPlot, ShmooPlotter
from repro.ate.tester import ATE
from repro.core.learning import LearningConfig, LearningResult, LearningScheme
from repro.core.objectives import CharacterizationObjective
from repro.core.optimization import (
    OptimizationConfig,
    OptimizationResult,
    OptimizationScheme,
)
from repro.core.trip_point import (
    DesignSpecificationValues,
    MultipleTripPointRunner,
    TripPointValue,
)
from repro.device.memory_chip import MemoryTestChip
from repro.device.process import ProcessInstance
from repro.obs.timing import span
from repro.patterns.conditions import (
    ConditionSpace,
    NOMINAL_CONDITION,
    TestCondition,
)
from repro.patterns.march import compile_march, get_march_test
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.testcase import TestCase
from repro.search.base import PassRegion

#: Default generous characterization range for the T_DQ strobe, in ns
#: (the paper's S1/S2 example scaled to the T_DQ axis).
DEFAULT_SEARCH_RANGE = (15.0, 45.0)


class DeviceCharacterizer:
    """Characterization campaigns against one device on one tester.

    Parameters
    ----------
    ate:
        The tester holding the device under test.
    condition_space:
        Admissible environmental region for random/GA tests.
    search_range:
        Generous characterization range ``(S1, S2)`` on the strobe axis.
    search_factor:
        SUTP base step ``SF``.
    resolution:
        Trip-point resolution for all searches.
    seed:
        Master seed for random generation and CI components.
    """

    def __init__(
        self,
        ate: ATE,
        condition_space: ConditionSpace = ConditionSpace(),
        search_range: Tuple[float, float] = DEFAULT_SEARCH_RANGE,
        search_factor: float = 0.5,
        resolution: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.ate = ate
        self.condition_space = condition_space
        self.search_range = search_range
        self.search_factor = search_factor
        self.resolution = resolution
        self.seed = seed
        self.objective = CharacterizationObjective.worst_case_for(
            ate.chip.parameter
        )
        # Boundary orientation follows the parameter: a min-limited timing
        # parameter passes below its trip point (eq. 3); a max-limited
        # current passes above its clamp trip point (eq. 4).
        from repro.device.parameters import SpecDirection

        self.pass_region = (
            PassRegion.LOW
            if ate.chip.parameter.direction is SpecDirection.MIN_IS_WORST
            else PassRegion.HIGH
        )

    @classmethod
    def with_default_setup(
        cls,
        seed: int = 0,
        die: Optional[ProcessInstance] = None,
        noise_sigma_ns: float = 0.04,
        parameter=None,
        **kwargs,
    ) -> "DeviceCharacterizer":
        """Build a nominal chip + tester + characterizer in one call.

        ``parameter`` selects the characterized device parameter (defaults
        to ``T_DQ``); pass a matching ``search_range`` for non-timing
        parameters (e.g. ``(40.0, 120.0)`` mA for peak supply current).
        """
        from repro.ate.measurement import MeasurementModel

        chip_kwargs = {}
        if die is not None:
            chip_kwargs["die"] = die
        if parameter is not None:
            chip_kwargs["parameter"] = parameter
        chip = MemoryTestChip(**chip_kwargs)
        ate = ATE(chip, measurement=MeasurementModel(noise_sigma_ns, seed=seed))
        return cls(ate, seed=seed, **kwargs)

    # -- runner factory -------------------------------------------------------
    def new_runner(self, strategy: str = "sutp") -> MultipleTripPointRunner:
        """Fresh multiple-trip-point runner (fresh SUTP reference)."""
        return MultipleTripPointRunner(
            self.ate,
            self.search_range,
            strategy=strategy,
            search_factor=self.search_factor,
            resolution=self.resolution,
            pass_region=self.pass_region,
        )

    def measure_single(
        self, test: TestCase, condition: Optional[TestCondition] = None
    ) -> TripPointValue:
        """Full-range single trip point of one test (conventional method)."""
        if condition is not None:
            test = test.with_condition(condition)
        runner = self.new_runner(strategy="full")
        return runner.measure_one(test)

    # -- Table 1, row 1: deterministic march baseline -------------------------------
    def characterize_march(
        self,
        march_name: str = "march_c-",
        condition: TestCondition = NOMINAL_CONDITION,
    ) -> Tuple[TestCase, TripPointValue]:
        """Single-trip-point characterization with a march pattern."""
        sequence = compile_march(get_march_test(march_name))
        test = TestCase(
            sequence, condition, name=march_name, origin="deterministic"
        )
        with span("march"):
            return test, self.measure_single(test)

    # -- Table 1, row 2: random multiple-trip-point baseline --------------------------
    def characterize_random(
        self,
        n_tests: int = 400,
        condition: Optional[TestCondition] = NOMINAL_CONDITION,
        strategy: str = "sutp",
    ) -> DesignSpecificationValues:
        """Multiple-trip-point characterization over random tests.

        ``condition=None`` lets every test sample its own operating point
        from the condition space; the default pins all tests at nominal
        (Table 1 compares at Vdd 1.8 V).
        """
        generator = RandomTestGenerator(
            seed=self.seed,
            condition_space=None if condition is not None else self.condition_space,
        )
        tests = generator.batch(n_tests)
        if condition is not None:
            tests = [t.with_condition(condition) for t in tests]
        runner = self.new_runner(strategy=strategy)
        with span("random"):
            return runner.run(tests)

    # -- Table 1, row 3: the CI flow ------------------------------------------------
    def characterize_intelligent(
        self,
        learning_config: Optional[LearningConfig] = None,
        optimization_config: Optional[OptimizationConfig] = None,
    ) -> Tuple[LearningResult, OptimizationResult]:
        """Full fig. 4 + fig. 5 pipeline; returns both phase results."""
        learning_config = (
            learning_config
            if learning_config is not None
            else LearningConfig(seed=self.seed)
        )
        optimization_config = (
            optimization_config
            if optimization_config is not None
            else OptimizationConfig(seed=self.seed)
        )
        learning_runner = self.new_runner(strategy="sutp")
        learning = LearningScheme(
            learning_runner, self.condition_space, learning_config
        ).run()

        optimization_runner = self.new_runner(strategy="sutp")
        optimization = OptimizationScheme(
            optimization_runner,
            self.condition_space,
            learning,
            self.objective,
            optimization_config,
        ).run()
        return learning, optimization

    # -- Table 1 assembly -------------------------------------------------------------
    def run_table1_comparison(
        self,
        march_name: str = "march_c-",
        random_tests: int = 400,
        learning_config: Optional[LearningConfig] = None,
        optimization_config: Optional[OptimizationConfig] = None,
        report_condition: TestCondition = NOMINAL_CONDITION,
    ) -> Table1Report:
        """Reproduce Table 1: march vs random vs NN+GA at a fixed Vdd.

        Every technique's winning *pattern* is finally re-measured at
        ``report_condition`` with a full-range search, so the reported
        values are directly comparable (the paper reports all three at
        Vdd 1.8 V).
        """
        report, _, _ = self._table1(
            march_name,
            random_tests,
            learning_config,
            optimization_config,
            report_condition,
        )
        return report

    def _table1(
        self,
        march_name: str,
        random_tests: int,
        learning_config: Optional[LearningConfig],
        optimization_config: Optional[OptimizationConfig],
        report_condition: TestCondition,
    ):
        """Table-1 body; also returns the random DSV and the optimization
        result so campaign-level reports can reuse them."""
        with span("table1"):
            return self._table1_body(
                march_name,
                random_tests,
                learning_config,
                optimization_config,
                report_condition,
            )

    def _table1_body(
        self,
        march_name: str,
        random_tests: int,
        learning_config: Optional[LearningConfig],
        optimization_config: Optional[OptimizationConfig],
        report_condition: TestCondition,
    ):
        parameter = self.ate.chip.parameter
        report = Table1Report(parameter=parameter, vdd=report_condition.vdd)
        if learning_config is None:
            learning_config = LearningConfig(
                seed=self.seed, pin_condition=report_condition
            )
        if optimization_config is None:
            optimization_config = OptimizationConfig(
                seed=self.seed, pin_condition=report_condition
            )

        # Deterministic march test.
        before = self.ate.measurement_count
        march_test, march_entry = self.characterize_march(
            march_name, report_condition
        )
        if march_entry.value is None:
            raise RuntimeError("march trip point not found; widen search_range")
        report.add(
            Table1Row(
                test_name="March Test",
                technique="Deterministic",
                wcr=self.objective.fitness(march_entry.value),
                value=march_entry.value,
                measurements=self.ate.measurement_count - before,
            )
        )

        # Random multiple trip point.
        before = self.ate.measurement_count
        dsv = self.characterize_random(random_tests, condition=report_condition)
        worst_random = dsv.worst()
        report.add(
            Table1Row(
                test_name="Random Test",
                technique="Random",
                wcr=self.objective.fitness(worst_random.value),
                value=worst_random.value,
                measurements=self.ate.measurement_count - before,
            )
        )

        # NN + GA.
        before = self.ate.measurement_count
        _, optimization = self.characterize_intelligent(
            learning_config, optimization_config
        )
        nominal_best = optimization.best_test.with_condition(report_condition)
        final_entry = self.measure_single(nominal_best)
        if final_entry.value is None:
            raise RuntimeError("NN+GA best test lost its trip point at nominal")
        report.add(
            Table1Row(
                test_name="NNGA Test",
                technique="Neural & Genetic",
                wcr=self.objective.fitness(final_entry.value),
                value=final_entry.value,
                measurements=self.ate.measurement_count - before,
            )
        )
        return report, dsv, optimization

    # -- fig. 6 screen ----------------------------------------------------------------
    def wcr_screen(
        self,
        tests: Sequence[TestCase],
        strobe_step: float = 0.5,
    ):
        """Grid-based WCR classification screen over the search range.

        Every test is measured on the same full strobe grid (one batched
        row per test) and classified pass/weakness/fail per fig. 6;
        returns a :class:`~repro.core.wcr.ScreenReport`.
        """
        from repro.core.wcr import WCRScreen

        low, high = self.search_range
        with span("screen"):
            return WCRScreen(self.ate).run(tests, low, high, strobe_step)

    # -- fig. 8 ---------------------------------------------------------------------
    def shmoo_overlay(
        self,
        tests: Sequence[TestCase],
        vdd_values: Sequence[float],
        strobe_step: float = 0.5,
    ) -> ShmooPlot:
        """Overlaid multi-test shmoo (Vdd x strobe), fig. 8."""
        plotter = ShmooPlotter(self.ate)
        low, high = self.search_range
        with span("shmoo"):
            return plotter.overlay(
                tests,
                vdd_values,
                strobe_start=low,
                strobe_stop=high,
                strobe_step=strobe_step,
                search_resolution=self.resolution,
            )
