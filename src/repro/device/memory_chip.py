"""The device under test: a behavioural memory test chip.

:class:`MemoryTestChip` is the 140nm memory test chip substitute.  It exposes
exactly the two faces real silicon shows a tester:

* a **functional** face — apply a vector sequence, observe read-back data
  (wrong data = functional failure; the array supports injected fault models
  so march tests are meaningful), and
* a **parametric** face — the *hidden* true ``T_DQ`` for a test, and a
  strobe-level pass/fail oracle.  Characterization code never reads the true
  value directly; it only observes pass/fail at a chosen strobe through the
  ATE, which adds measurement noise on top.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.faults import FaultModel
from repro.device.parameters import T_DQ_PARAMETER, DeviceParameter, SpecDirection
from repro.device.process import NOMINAL_DIE, ProcessInstance
from repro.device.sensitivity import SensitivityModel
from repro.device.timing import TimingModel
from repro.patterns.features import PatternFeatures, extract_features
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import (
    DEFAULT_ADDR_BITS,
    DEFAULT_DATA_BITS,
    OP_READ,
    OP_WRITE,
    VectorSequence,
)


@dataclass(frozen=True)
class FunctionalResult:
    """Outcome of one functional pattern application.

    ``mismatches`` lists ``(cycle, address, expected, observed)`` for every
    read whose data differed from the golden (fault-free) model.
    """

    cycles: int
    reads: int
    mismatches: Tuple[Tuple[int, int, int, int], ...]

    @property
    def passed(self) -> bool:
        """True when every read returned golden data."""
        return not self.mismatches

    @property
    def failure_count(self) -> int:
        """Number of miscompared reads."""
        return len(self.mismatches)


class _MemoryArray:
    """Bit-accurate memory array with attached fault models."""

    def __init__(self, words: int, data_bits: int, faults: Sequence[FaultModel]):
        self.words = words
        self.data_bits = data_bits
        self.faults = list(faults)
        self._cells = np.zeros(words, dtype=np.int64)

    def reset(self) -> None:
        self._cells.fill(0)

    def write(self, address: int, word: int) -> None:
        if not self.faults:
            self._cells[address] = word
            return
        old_word = int(self._cells[address])
        new_word = 0
        coupling_actions: List[Tuple[int, int, int]] = []
        for bit in range(self.data_bits):
            old_bit = (old_word >> bit) & 1
            requested = (word >> bit) & 1
            stored = requested
            for fault in self.faults:
                override = fault.on_write(address, bit, old_bit, stored)
                if override is not None:
                    stored = override
                action = fault.coupled_update(address, bit, old_bit, requested)
                if action is not None:
                    coupling_actions.append(action)
            new_word |= stored << bit
        self._cells[address] = new_word
        for victim_word, victim_bit, forced in coupling_actions:
            current = int(self._cells[victim_word])
            current_bit = (current >> victim_bit) & 1
            value = (1 - current_bit) if forced == -1 else forced
            current = (current & ~(1 << victim_bit)) | (value << victim_bit)
            self._cells[victim_word] = current

    def read(self, address: int) -> int:
        stored_word = int(self._cells[address])
        if not self.faults:
            return stored_word
        observed = 0
        for bit in range(self.data_bits):
            stored_bit = (stored_word >> bit) & 1
            seen = stored_bit
            for fault in self.faults:
                override = fault.on_read(address, bit, stored_bit)
                if override is not None:
                    seen = override
            observed |= seen << bit
        return observed


class MemoryTestChip:
    """One die of the simulated memory test chip.

    Parameters
    ----------
    die:
        Process instance (defaults to the nominal typical die).
    timing:
        Timing model; a default-configured model is built when omitted.
    faults:
        Injected memory fault models (empty = healthy die).
    addr_bits, data_bits:
        Bus geometry.
    parameter:
        The AC parameter this chip is characterized for (``T_DQ`` default).
    """

    def __init__(
        self,
        die: ProcessInstance = NOMINAL_DIE,
        timing: Optional[TimingModel] = None,
        faults: Sequence[FaultModel] = (),
        addr_bits: int = DEFAULT_ADDR_BITS,
        data_bits: int = DEFAULT_DATA_BITS,
        parameter: DeviceParameter = T_DQ_PARAMETER,
    ) -> None:
        self.die = die
        self.timing = timing if timing is not None else TimingModel(SensitivityModel())
        self.addr_bits = addr_bits
        self.data_bits = data_bits
        self.parameter = parameter
        self._array = _MemoryArray(1 << addr_bits, data_bits, faults)
        self._golden = _MemoryArray(1 << addr_bits, data_bits, ())
        # Functional results keyed by sequence identity; the sequence
        # object is pinned in the value so ids cannot be recycled.
        self._functional_cache: Dict[int, Tuple[VectorSequence, FunctionalResult]] = {}
        # Heating-independent parametric values memoized per (sequence,
        # condition) — a small LRU, since a characterization campaign probes
        # the same few (die, test) pairs thousands of times.
        self._static_cache: "OrderedDict[Tuple[int, object], Tuple[VectorSequence, float, float]]" = (
            OrderedDict()
        )

    # -- functional face -------------------------------------------------------
    def run_functional(self, sequence: VectorSequence) -> FunctionalResult:
        """Apply a vector sequence and compare reads against the golden model.

        Both the faulty and the golden array start from the all-zero reset
        state, so the comparison isolates injected faults from data-history
        effects.  Results are cached per sequence.
        """
        cached = self._functional_cache.get(id(sequence))
        if cached is not None and cached[0] is sequence:
            return cached[1]
        self._array.reset()
        self._golden.reset()
        mismatches: List[Tuple[int, int, int, int]] = []
        reads = 0
        cycles = zip(*(column.tolist() for column in sequence.columns))
        for cycle, (op, address, data) in enumerate(cycles):
            if op == OP_WRITE:
                self._array.write(address, data)
                self._golden.write(address, data)
            elif op == OP_READ:
                reads += 1
                observed = self._array.read(address)
                expected = self._golden.read(address)
                if observed != expected:
                    mismatches.append((cycle, address, expected, observed))
        result = FunctionalResult(
            cycles=len(sequence), reads=reads, mismatches=tuple(mismatches)
        )
        self._functional_cache[id(sequence)] = (sequence, result)
        return result

    # -- parametric face ---------------------------------------------------------
    def features_of(self, sequence: VectorSequence) -> PatternFeatures:
        """Activity features of a sequence, extracted once per sequence."""
        return sequence.features(extract_features)

    #: Entries kept in the per-(sequence, condition) static-value LRU.
    _STATIC_CACHE_SIZE = 128

    def _parametric_static(self, test: TestCase) -> Tuple[float, float]:
        """Memoized ``(static value, peak activity)`` for one test.

        The static value is the heating-independent part of the chip's
        parameter for ``test`` (``static_t_dq_ns`` for timing parameters,
        the full value for ``idd_peak``, which has no thermal term).  Keyed
        by ``(id(sequence), condition)`` with the sequence object pinned in
        the value so a recycled ``id`` can never alias a stale entry; the
        :class:`~repro.patterns.conditions.TestCondition` is a frozen,
        hashable dataclass.
        """
        key = (id(test.sequence), test.condition)
        cached = self._static_cache.get(key)
        if cached is not None and cached[0] is test.sequence:
            self._static_cache.move_to_end(key)
            return cached[1], cached[2]
        features = self.features_of(test.sequence)
        if self.parameter.name == "idd_peak":
            static = self.timing.idd_peak_ma(features, test.condition)
            activity = 0.0
        else:
            static = self.timing.static_t_dq_ns(
                features, test.condition, self.die
            )
            activity = features["peak_window_activity"]
        self._static_cache[key] = (test.sequence, static, activity)
        if len(self._static_cache) > self._STATIC_CACHE_SIZE:
            self._static_cache.popitem(last=False)
        return static, activity

    def true_parameter_value(
        self, test: TestCase, account_heating: bool = True
    ) -> float:
        """The hidden true parameter value for one application of ``test``.

        Only the ATE measurement layer should call this; algorithms observe
        the device exclusively through strobed pass/fail decisions.
        """
        static, activity = self._parametric_static(test)
        if self.parameter.name == "idd_peak":
            return static
        if account_heating:
            self.timing.heating.apply(activity)
        t_dq = float(static - self.timing.heating.derating_ns)
        if self.parameter.name == "f_max":
            return self.timing.f_max_from_t_dq(t_dq)
        return t_dq

    def true_parameter_values(
        self, test: TestCase, count: int, account_heating: bool = True
    ) -> np.ndarray:
        """True parameter values of ``count`` successive applications.

        The vectorized parametric face: element ``k`` is bit-identical to
        the ``k``-th of ``count`` sequential :meth:`true_parameter_value`
        calls, including the self-heating drift those calls would deposit
        (the thermal state is advanced by the full batch).  With
        ``account_heating=False`` no heat is deposited and every element
        sees the current derating.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        static, activity = self._parametric_static(test)
        if self.parameter.name == "idd_peak":
            return np.full(count, static)
        heating = self.timing.heating
        if account_heating:
            deratings = heating.derating_sequence(activity, count)
        else:
            deratings = np.full(count, heating.derating_ns)
        t_dq = static - deratings
        if self.parameter.name == "f_max":
            return self.timing.f_max_from_t_dq(t_dq)
        return t_dq

    def strobe_passes(self, test: TestCase, strobe_ns: float) -> bool:
        """Pass/fail of ``test`` with the compare level at ``strobe_ns``.

        For a min-limited parameter the device passes while the strobe still
        falls inside the valid window (``strobe <= T_DQ``); for a max-limited
        one, while the measured value stays below the level.  A functional
        failure fails regardless of level placement.
        """
        if not self.run_functional(test.sequence).passed:
            return False
        value = self.true_parameter_value(test)
        if self.parameter.direction is SpecDirection.MIN_IS_WORST:
            return strobe_ns <= value
        return value <= strobe_ns

    def strobes_pass(self, test: TestCase, strobes_ns: Sequence[float]) -> np.ndarray:
        """Noise-free pass/fail of one batch of strobe levels.

        Element ``k`` matches ``strobe_passes(test, strobes_ns[k])`` called
        ``k``-th in sequence (each element models one application, so the
        batch advances self-heating just like the scalar loop would).  A
        functional failure fails the whole batch without touching the
        thermal state, mirroring the scalar early return.
        """
        strobes = np.asarray(strobes_ns, dtype=float)
        if not self.run_functional(test.sequence).passed:
            return np.zeros(strobes.shape, dtype=bool)
        values = self.true_parameter_values(test, strobes.size)
        if self.parameter.direction is SpecDirection.MIN_IS_WORST:
            return strobes <= values
        return values <= strobes

    def reset_state(self) -> None:
        """Cool the die and clear the array (new characterization insertion)."""
        self.timing.reset()
        self._array.reset()
        self._golden.reset()

    # -- multiprocessing support ---------------------------------------------------
    def __getstate__(self):
        # The caches are keyed by object identity (id()), which does not
        # survive a pickle round-trip; ship the chip without them so farm
        # workers start from a clean, small state.
        state = self.__dict__.copy()
        state["_functional_cache"] = {}
        state["_static_cache"] = OrderedDict()
        return state
