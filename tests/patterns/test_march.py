"""Tests for the march-test library and compiler."""

import pytest

from repro.patterns.march import (
    MARCH_LIBRARY,
    AddressOrder,
    MarchElement,
    MarchTest,
    available_march_tests,
    checkerboard_background,
    compile_march,
    get_march_test,
    solid_background,
)
from repro.patterns.vectors import Operation


class TestMarchElement:
    def test_rejects_empty_ops(self):
        with pytest.raises(ValueError):
            MarchElement(AddressOrder.UP, ())

    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            MarchElement(AddressOrder.UP, (("x", 0),))

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            MarchElement(AddressOrder.UP, (("r", 2),))

    def test_cost(self):
        element = MarchElement(AddressOrder.UP, (("r", 0), ("w", 1)))
        assert element.cost == 2


class TestMarchLibrary:
    def test_all_known_algorithms_present(self):
        names = available_march_tests()
        for expected in ("mats", "mats+", "march_c-", "march_b", "march_x",
                         "march_y", "march_lr", "march_ss", "march_a",
                         "march_g"):
            assert expected in names

    def test_get_is_case_insensitive(self):
        assert get_march_test("MARCH_C-") is MARCH_LIBRARY["march_c-"]

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown march"):
            get_march_test("march_zz")

    @pytest.mark.parametrize(
        "name,complexity",
        [("mats", 4), ("mats+", 5), ("march_x", 6), ("march_y", 8),
         ("march_c-", 10), ("march_b", 17), ("march_lr", 14),
         ("march_ss", 22), ("march_a", 15), ("march_g", 23)],
    )
    def test_classic_complexities(self, name, complexity):
        """The kN complexities match the literature's values."""
        assert get_march_test(name).complexity == complexity


class TestCompiler:
    def test_auto_window_fits_budget(self):
        seq = compile_march(get_march_test("march_c-"), max_cycles=1000)
        assert len(seq) <= 1000
        assert len(seq) == (1000 // 10) * 10

    def test_explicit_addresses(self):
        seq = compile_march(get_march_test("mats+"), addresses=range(8))
        assert len(seq) == 8 * 5
        assert set(seq.addresses.tolist()) == set(range(8))

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="cycles"):
            compile_march(
                get_march_test("march_c-"), addresses=range(200), max_cycles=100
            )

    def test_down_elements_walk_descending(self):
        seq = compile_march(get_march_test("mats+"), addresses=range(4))
        # mats+: ANY(w0) 4 cycles, UP(r0,w1) 8 cycles, DOWN(r1,w0) 8 cycles.
        down_part = seq.addresses.tolist()[12:]
        assert down_part == [3, 3, 2, 2, 1, 1, 0, 0]

    def test_up_elements_walk_ascending(self):
        seq = compile_march(get_march_test("mats+"), addresses=range(4))
        up_part = seq.addresses.tolist()[4:12]
        assert up_part == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_solid_background_data_values(self):
        seq = compile_march(get_march_test("mats+"), addresses=range(4))
        writes = [v for v in seq if v.op is Operation.WRITE]
        assert {v.data for v in writes} == {0x00, 0xFF}

    def test_checkerboard_background(self):
        seq = compile_march(
            get_march_test("mats+"),
            addresses=range(4),
            background=checkerboard_background,
        )
        first_writes = [v for v in seq if v.op is Operation.WRITE][:2]
        # Adjacent addresses carry inverted checkerboard words.
        assert first_writes[0].data ^ first_writes[1].data == 0xFF

    def test_sequence_named_after_algorithm(self):
        assert compile_march(get_march_test("march_b")).name == "march_b"

    def test_read_vectors_carry_expected_background(self):
        """Read vectors record the expected data in their data field."""
        seq = compile_march(get_march_test("mats+"), addresses=range(2))
        reads = [v for v in seq if v.op is Operation.READ]
        assert all(v.data in (0x00, 0xFF) for v in reads)

    def test_march_detects_march_complexity_cycles(self):
        """Compiled length is exactly complexity * addresses."""
        for name in available_march_tests():
            test = get_march_test(name)
            seq = compile_march(test, addresses=range(10))
            assert len(seq) == 10 * test.complexity


class TestMarchSemantics:
    """March tests must actually detect the faults they were designed for."""

    def _run_march(self, chip, name="march_c-", addresses=range(16)):
        seq = compile_march(get_march_test(name), addresses=addresses)
        return chip.run_functional(seq)

    def test_march_c_detects_stuck_at_zero(self):
        from repro.device.faults import StuckAtFault
        from repro.device.memory_chip import MemoryTestChip

        chip = MemoryTestChip(faults=[StuckAtFault(word=3, bit=2, stuck_value=0)])
        assert not self._run_march(chip).passed

    def test_march_c_detects_stuck_at_one(self):
        from repro.device.faults import StuckAtFault
        from repro.device.memory_chip import MemoryTestChip

        chip = MemoryTestChip(faults=[StuckAtFault(word=5, bit=0, stuck_value=1)])
        assert not self._run_march(chip).passed

    def test_march_c_detects_transition_fault(self):
        from repro.device.faults import TransitionFault
        from repro.device.memory_chip import MemoryTestChip

        chip = MemoryTestChip(faults=[TransitionFault(word=7, bit=1, rising=True)])
        assert not self._run_march(chip).passed

    def test_march_c_detects_coupling_fault(self):
        from repro.device.faults import CouplingFault
        from repro.device.memory_chip import MemoryTestChip

        chip = MemoryTestChip(
            faults=[
                CouplingFault(
                    aggressor_word=2,
                    aggressor_bit=0,
                    victim_word=1,
                    victim_bit=0,
                    trigger_rising=True,
                    invert_victim=True,
                )
            ]
        )
        assert not self._run_march(chip).passed

    def test_march_passes_on_healthy_chip(self, chip):
        for name in available_march_tests():
            result = self._run_march(chip, name=name, addresses=range(8))
            assert result.passed, f"{name} failed on a healthy chip"

    def test_fault_outside_window_escapes(self):
        """A fault outside the marched window is (correctly) not detected."""
        from repro.device.faults import StuckAtFault
        from repro.device.memory_chip import MemoryTestChip

        chip = MemoryTestChip(faults=[StuckAtFault(word=500, bit=0, stuck_value=1)])
        assert self._run_march(chip, addresses=range(16)).passed
