"""Pattern feature extraction.

The limits of device operating values "are heavily dependent on input tests"
(section 1).  What the physics actually responds to is the *activity profile*
of a pattern: address/data bus switching, read-after-write hazards, peak
switching windows (power-supply noise), decoder stress from long address
jumps, and so on.

This module reduces a :class:`~repro.patterns.vectors.VectorSequence` to a
fixed vector of such activity features, each normalized to ``[0, 1]``.  The
features serve two independent consumers:

* the **device simulator**'s sensitivity model, which maps (a nonlinear
  combination of) features to parameter degradation, and
* the **NN encoder**, which presents the features as network inputs.

The feature set is deliberately richer than what the device model uses, so
the learning task is a genuine variable-selection problem rather than an
identity mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.patterns.vectors import OP_NOP, OP_READ, OP_WRITE, VectorSequence, checkerboard_word

#: Canonical feature order.  Extend only by appending — NN weight files
#: record the feature dimension they were trained with.
FEATURE_NAMES: Tuple[str, ...] = (
    "addr_transition_density",
    "addr_msb_toggle_rate",
    "addr_jump_distance",
    "addr_repeat_run",
    "data_toggle_density",
    "data_ones_density",
    "checkerboard_affinity",
    "write_fraction",
    "read_fraction",
    "nop_fraction",
    "read_after_write_rate",
    "same_addr_turnaround_rate",
    "rw_alternation_rate",
    "burst_read_run",
    "burst_write_run",
    "peak_window_activity",
    "idle_to_active_rate",
    "addr_coverage",
)

#: Human-readable definition of each feature (reports, weight files).
FEATURE_DESCRIPTIONS = {
    "addr_transition_density": "mean Hamming distance of consecutive addresses / addr bits",
    "addr_msb_toggle_rate": "toggle rate of the top address bit (row-decoder stress)",
    "addr_jump_distance": "mean |address delta| / address-space size",
    "addr_repeat_run": "mean run length of repeated addresses (capped at 8)",
    "data_toggle_density": "mean Hamming distance of consecutive bus data words / data bits",
    "data_ones_density": "mean ones density of written data",
    "checkerboard_affinity": "1 - distance of written data to the nearer checkerboard phase",
    "write_fraction": "fraction of write cycles",
    "read_fraction": "fraction of read cycles",
    "nop_fraction": "fraction of idle cycles",
    "read_after_write_rate": "rate of same-address write-then-read transitions",
    "same_addr_turnaround_rate": "rate of same-address read/write direction turnarounds",
    "rw_alternation_rate": "rate of read<->write operation flips",
    "burst_read_run": "longest consecutive-read run / 64 (capped)",
    "burst_write_run": "longest consecutive-write run / 64 (capped)",
    "peak_window_activity": "max combined addr+data switching over a sliding window",
    "idle_to_active_rate": "rate of NOP-to-active transitions (bus wakeups)",
    "addr_coverage": "distinct addresses touched / address-space size",
}

#: Sliding window (cycles) for the peak switching-activity feature — roughly
#: the supply-decoupling time constant of the simulated chip.
PEAK_WINDOW_CYCLES = 16


@dataclass(frozen=True)
class PatternFeatures:
    """Named view over an extracted feature vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"feature vector must have shape ({len(FEATURE_NAMES)},), "
                f"got {self.values.shape}"
            )

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[FEATURE_NAMES.index(name)])
        except ValueError as exc:
            raise KeyError(f"unknown feature {name!r}") from exc

    def as_dict(self) -> Dict[str, float]:
        """Feature name → value mapping."""
        return {name: float(v) for name, v in zip(FEATURE_NAMES, self.values)}

    def __len__(self) -> int:
        return len(self.values)


def _popcount(values: np.ndarray) -> np.ndarray:
    """Vectorized population count for small unsigned integers."""
    counts = np.zeros_like(values)
    work = values.copy()
    while np.any(work):
        counts += work & 1
        work >>= 1
    return counts


def _mean_run_length(mask: np.ndarray) -> float:
    """Average length of maximal runs of True in ``mask`` (0.0 if none)."""
    if not mask.any():
        return 0.0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return float(np.mean(ends - starts))


def _max_run_length(mask: np.ndarray) -> int:
    """Longest maximal run of True in ``mask``."""
    if not mask.any():
        return 0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return int(np.max(ends - starts))


def bus_switching(sequence: VectorSequence) -> Tuple[np.ndarray, np.ndarray]:
    """Address-bus and data-bus bits switched at each of the ``len - 1``
    cycle transitions.  The data bus holds the last written word through
    reads and NOPs (zero before the first write).
    """
    writes = np.where(sequence.ops == OP_WRITE, np.arange(len(sequence)), -1)
    last_write = np.maximum.accumulate(writes)
    bus_data = np.where(last_write >= 0, sequence.data[np.maximum(last_write, 0)], 0)
    addresses = sequence.addresses
    return (
        _popcount(addresses[1:] ^ addresses[:-1]),
        _popcount(bus_data[1:] ^ bus_data[:-1]),
    )


def extract_features(sequence: VectorSequence) -> PatternFeatures:
    """Extract the canonical activity features of a vector sequence.

    Every feature is normalized to ``[0, 1]``.  Extraction is deterministic
    and linear in the sequence length.  ``sequence.features(extract_features)``
    extracts once per sequence.
    """
    n = len(sequence)
    addr_bits = sequence.addr_bits
    data_bits = sequence.data_bits

    addresses = sequence.addresses
    is_read = sequence.ops == OP_READ
    is_write = sequence.ops == OP_WRITE
    is_active = sequence.ops != OP_NOP

    features = np.zeros(len(FEATURE_NAMES), dtype=float)
    index = {name: i for i, name in enumerate(FEATURE_NAMES)}

    if n >= 2:
        addr_hamming, data_hamming = bus_switching(sequence)
        features[index["addr_transition_density"]] = float(
            np.mean(addr_hamming) / addr_bits
        )
        msb = (addresses >> (addr_bits - 1)) & 1
        features[index["addr_msb_toggle_rate"]] = float(
            np.mean(msb[1:] != msb[:-1])
        )
        jumps = np.abs(np.diff(addresses.astype(np.int64)))
        features[index["addr_jump_distance"]] = float(
            np.mean(jumps) / max(1, (1 << addr_bits) - 1)
        )
        repeat = addresses[1:] == addresses[:-1]
        features[index["addr_repeat_run"]] = min(
            1.0, _mean_run_length(repeat) / 8.0
        )
        features[index["data_toggle_density"]] = float(
            np.mean(data_hamming) / data_bits
        )
        op_flip = (is_read[1:] & is_write[:-1]) | (is_write[1:] & is_read[:-1])
        features[index["rw_alternation_rate"]] = float(np.mean(op_flip))
        raw = is_read[1:] & is_write[:-1] & (addresses[1:] == addresses[:-1])
        features[index["read_after_write_rate"]] = float(np.mean(raw))
        turnaround = (addresses[1:] == addresses[:-1]) & op_flip
        features[index["same_addr_turnaround_rate"]] = float(np.mean(turnaround))
        idle_to_active = is_active[1:] & ~is_active[:-1]
        features[index["idle_to_active_rate"]] = float(np.mean(idle_to_active))

    written = sequence.data[is_write]
    if written.size:
        features[index["data_ones_density"]] = float(
            np.mean(_popcount(written)) / data_bits
        )
        features[index["checkerboard_affinity"]] = float(
            1.0 - np.mean(_checkerboard_distance(written, data_bits))
        )

    features[index["write_fraction"]] = float(np.mean(is_write))
    features[index["read_fraction"]] = float(np.mean(is_read))
    features[index["nop_fraction"]] = float(np.mean(~is_active))
    features[index["burst_read_run"]] = min(1.0, _max_run_length(is_read) / 64.0)
    features[index["burst_write_run"]] = min(1.0, _max_run_length(is_write) / 64.0)
    features[index["addr_coverage"]] = float(
        np.unique(addresses).size / (1 << addr_bits)
    )

    if n >= 2:
        activity = (addr_hamming / addr_bits + data_hamming / data_bits) / 2.0
        window = min(PEAK_WINDOW_CYCLES, activity.size)
        kernel = np.ones(window) / window
        rolling = np.convolve(activity, kernel, mode="valid")
        features[index["peak_window_activity"]] = float(np.max(rolling))

    np.clip(features, 0.0, 1.0, out=features)
    return PatternFeatures(features)


def _checkerboard_distance(data: np.ndarray, data_bits: int) -> np.ndarray:
    """Normalized Hamming distance of each word to the nearer checkerboard phase.

    The two phases are complements, so the nearer one is as near whatever
    the word's address: ``min(d, data_bits - d)`` against either phase.
    """
    distance = _popcount(data ^ checkerboard_word(0, data_bits))
    return np.minimum(distance, data_bits - distance) / data_bits
