"""Tests for lot characterization and environmental sweeps."""

import pickle

import numpy as np
import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.lot import (
    EnvironmentalSweep,
    LotCharacterizer,
    LotReport,
)
from repro.device.memory_chip import MemoryTestChip
from repro.device.parameters import IDD_PEAK_PARAMETER, T_DQ_PARAMETER
from repro.device.process import ProcessCorner, ProcessModel
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator


@pytest.fixture
def small_test_set():
    generator = RandomTestGenerator(seed=61)
    return [t.with_condition(NOMINAL_CONDITION) for t in generator.batch(6)]


class TestLotCharacterizer:
    def _characterizer(self, **kwargs):
        return LotCharacterizer(
            search_range=(15.0, 45.0), noise_sigma=0.0, seed=3, **kwargs
        )

    def test_validates_inputs(self, small_test_set):
        lot = self._characterizer()
        with pytest.raises(ValueError):
            lot.run(small_test_set, n_dies=0)
        with pytest.raises(ValueError):
            lot.run([], n_dies=2)

    def test_runs_requested_die_count(self, small_test_set):
        report = self._characterizer().run(small_test_set, n_dies=4)
        assert len(report.dies) == 4
        assert len({d.die.die_id for d in report.dies}) == 4

    def test_die_units_carry_the_deck_features(self, small_test_set):
        """The deck's features are extracted here before the units are
        built, so every pickled unit carries them (otherwise each process
        farm worker would extract its own copy)."""
        lot = self._characterizer()
        lot.run(small_test_set, n_dies=2, workers=2)
        die = lot.process.sample_lot(1)[0]
        unit = pickle.loads(pickle.dumps(lot.die_unit(die, small_test_set)))

        def no_extraction(sequence):
            raise AssertionError("a unit's features were extracted again")

        for shipped, test in zip(unit.payload["tests"], small_test_set):
            assert shipped.sequence.features(no_extraction).as_dict() == (
                test.sequence.features(no_extraction).as_dict()
            )

    def test_worst_die_has_max_wcr(self, small_test_set):
        report = self._characterizer().run(small_test_set, n_dies=5)
        worst = report.worst_die()
        assert worst.worst_wcr == max(d.worst_wcr for d in report.dies)

    def test_lot_stats_cover_all_dies(self, small_test_set):
        report = self._characterizer().run(small_test_set, n_dies=5)
        assert report.lot_stats().count == 5

    def test_forced_corner(self, small_test_set):
        report = self._characterizer().run(
            small_test_set, n_dies=3, corner=ProcessCorner.SS
        )
        assert set(report.by_corner()) == {ProcessCorner.SS}

    def test_ss_corner_worse_than_ff(self, small_test_set):
        """Slow silicon shows systematically smaller T_DQ worst cases."""
        lot = self._characterizer(process=ProcessModel(seed=9, timing_sigma_ns=0.1))
        ss = lot.run(small_test_set, n_dies=4, corner=ProcessCorner.SS)
        lot_ff = self._characterizer(
            process=ProcessModel(seed=9, timing_sigma_ns=0.1)
        )
        ff = lot_ff.run(small_test_set, n_dies=4, corner=ProcessCorner.FF)
        assert ss.lot_stats().mean < ff.lot_stats().mean

    def test_describe_renders(self, small_test_set):
        report = self._characterizer().run(small_test_set, n_dies=3)
        text = report.describe()
        assert "lot of 3 dies" in text
        assert "worst case" in text

    def test_empty_report_raises(self):
        with pytest.raises(ValueError):
            LotReport(parameter=T_DQ_PARAMETER).worst_die()

    def test_max_limited_parameter_lot(self, small_test_set):
        lot = self._characterizer(
            parameter=IDD_PEAK_PARAMETER,
        )
        lot.search_range = (20.0, 120.0)
        lot.resolution = 0.2
        lot.search_factor = 1.0
        report = lot.run(small_test_set, n_dies=3)
        # Worst case of a max-limited parameter is the largest value.
        for die in report.dies:
            assert die.worst_wcr == pytest.approx(
                die.worst_value / IDD_PEAK_PARAMETER.spec_limit
            )


class TestEnvironmentalSweep:
    def _sweep(self):
        chip = MemoryTestChip()
        ate = ATE(chip, measurement=MeasurementModel(0.0, seed=0))
        return EnvironmentalSweep(ate, (15.0, 45.0), resolution=0.05)

    def test_axis_validation(self, small_test_set):
        sweep = self._sweep()
        with pytest.raises(ValueError):
            sweep.sweep(small_test_set[0], [], [25.0])

    def test_grid_shape_and_coverage(self, small_test_set):
        result = self._sweep().sweep(
            small_test_set[0], vdd_values=[1.6, 1.8, 2.0],
            temperature_values=[-40.0, 25.0, 125.0],
        )
        assert result.trip_points.shape == (3, 3)
        assert not np.any(np.isnan(result.trip_points))
        assert result.measurements > 0

    def test_vdd_monotonicity(self, small_test_set):
        """Higher Vdd widens the valid window at fixed temperature."""
        result = self._sweep().sweep(
            small_test_set[0], vdd_values=[1.5, 1.8, 2.1],
            temperature_values=[25.0],
        )
        column = result.trip_points[:, 0]
        assert column[0] < column[1] < column[2]

    def test_temperature_monotonicity(self, small_test_set):
        """Hotter junctions shrink the window at fixed Vdd."""
        result = self._sweep().sweep(
            small_test_set[0], vdd_values=[1.8],
            temperature_values=[-40.0, 25.0, 125.0],
        )
        row = result.trip_points[0, :]
        assert row[0] > row[1] > row[2]

    def test_worst_cell_is_low_vdd_hot(self, small_test_set):
        result = self._sweep().sweep(
            small_test_set[0], vdd_values=[1.5, 1.8, 2.1],
            temperature_values=[-40.0, 25.0, 125.0],
        )
        i, j, value = result.worst_cell()
        assert (i, j) == (0, 2)  # lowest Vdd, hottest
        assert value == np.nanmin(result.trip_points)

    def test_margin_grid_sign(self, small_test_set):
        result = self._sweep().sweep(
            small_test_set[0], vdd_values=[1.8], temperature_values=[25.0]
        )
        assert np.all(result.margin_grid() > 0)  # healthy die meets spec

    def test_render(self, small_test_set):
        result = self._sweep().sweep(
            small_test_set[0], vdd_values=[1.6, 2.0],
            temperature_values=[0.0, 100.0],
        )
        text = result.render()
        assert "Vdd" in text
        assert text.count("\n") == 3
