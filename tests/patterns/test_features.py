"""Tests for pattern feature extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns.features import (
    FEATURE_NAMES,
    PEAK_WINDOW_CYCLES,
    PatternFeatures,
    _checkerboard_distance,
    _max_run_length,
    _mean_run_length,
    _popcount,
    extract_features,
)
from repro.patterns.march import compile_march, get_march_test
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import (
    OPERATIONS,
    Operation,
    TestVector,
    VectorSequence,
    sequence_from_ops,
)


def seq_of(vectors):
    return VectorSequence(vectors)


class TestPatternFeatures:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PatternFeatures(np.zeros(3))

    def test_named_access(self):
        features = extract_features(seq_of([TestVector(Operation.READ, 0, 0)] * 5))
        assert features["read_fraction"] == pytest.approx(1.0)

    def test_unknown_name_raises(self):
        features = extract_features(seq_of([TestVector(Operation.READ, 0, 0)] * 5))
        with pytest.raises(KeyError):
            features["no_such_feature"]

    def test_as_dict_covers_all_names(self):
        features = extract_features(seq_of([TestVector(Operation.NOP, 0, 0)] * 5))
        assert set(features.as_dict()) == set(FEATURE_NAMES)


class TestExtremes:
    def test_all_nop_sequence_is_inert(self):
        features = extract_features(seq_of([TestVector(Operation.NOP, 0, 0)] * 50))
        assert features["nop_fraction"] == pytest.approx(1.0)
        assert features["peak_window_activity"] == pytest.approx(0.0)
        assert features["data_toggle_density"] == pytest.approx(0.0)

    def test_single_cycle_sequence(self):
        """Degenerate one-cycle sequences extract without error."""
        features = extract_features(seq_of([TestVector(Operation.WRITE, 5, 7)]))
        assert features["write_fraction"] == pytest.approx(1.0)
        assert features["addr_transition_density"] == pytest.approx(0.0)

    def test_full_toggle_writes_maximize_activity(self):
        vectors = []
        word, addr = 0, 0
        for _ in range(64):
            word ^= 0xFF
            addr ^= 0x3FF
            vectors.append(TestVector(Operation.WRITE, addr, word))
        features = extract_features(seq_of(vectors))
        assert features["data_toggle_density"] == pytest.approx(1.0)
        assert features["addr_transition_density"] == pytest.approx(1.0)
        assert features["peak_window_activity"] == pytest.approx(1.0)
        assert features["addr_msb_toggle_rate"] == pytest.approx(1.0)

    def test_constant_address_stream(self):
        vectors = [TestVector(Operation.WRITE, 9, i % 256) for i in range(32)]
        features = extract_features(seq_of(vectors))
        assert features["addr_transition_density"] == pytest.approx(0.0)
        assert features["addr_jump_distance"] == pytest.approx(0.0)
        assert features["addr_repeat_run"] > 0.5

    def test_read_after_write_detection(self):
        ops = []
        for i in range(20):
            ops.append(("w", 7, 0xAA))
            ops.append(("r", 7, 0))
        features = extract_features(sequence_from_ops(ops))
        # Every w->r transition at the same address counts: 20 of 39.
        assert features["read_after_write_rate"] == pytest.approx(20 / 39)

    def test_read_after_write_requires_same_address(self):
        ops = []
        for i in range(20):
            ops.append(("w", i, 0xAA))
            ops.append(("r", i + 100, 0))
        features = extract_features(sequence_from_ops(ops))
        assert features["read_after_write_rate"] == pytest.approx(0.0)

    def test_burst_runs_capped_at_one(self):
        vectors = [TestVector(Operation.READ, 0, 0)] * 200
        features = extract_features(seq_of(vectors))
        assert features["burst_read_run"] == pytest.approx(1.0)

    def test_addr_coverage(self):
        vectors = [TestVector(Operation.READ, a, 0) for a in range(512)]
        features = extract_features(seq_of(vectors))
        assert features["addr_coverage"] == pytest.approx(0.5)

    def test_bus_holds_last_write_through_reads(self):
        """Reads do not toggle the write-data bus model."""
        ops = [("w", 0, 0xFF)] + [("r", i, 0) for i in range(1, 30)]
        features = extract_features(sequence_from_ops(ops))
        assert features["data_toggle_density"] == pytest.approx(0.0)


class TestKnownPatterns:
    def test_march_c_is_benign(self):
        """March C- must sit far below the weakness thresholds."""
        features = extract_features(compile_march(get_march_test("march_c-")))
        assert features["peak_window_activity"] < 0.3
        # Element boundaries contribute a couple of same-address w->r
        # transitions; the rate must still be negligible.
        assert features["read_after_write_rate"] < 0.01
        assert features["addr_msb_toggle_rate"] < 0.1

    def test_march_y_has_read_after_write(self):
        """March Y's (r0,w1,r1) element reads right after writing."""
        features = extract_features(compile_march(get_march_test("march_y")))
        assert features["read_after_write_rate"] > 0.2


class TestDeterminismAndRange:
    def test_extraction_is_deterministic(self):
        generator = RandomTestGenerator(seed=3)
        seq = generator.generate().sequence
        a = extract_features(seq).values
        b = extract_features(seq).values
        assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_all_features_in_unit_interval(self, seed):
        """Invariant: every feature of any random test lies in [0, 1]."""
        generator = RandomTestGenerator(seed=seed, min_cycles=20, max_cycles=120)
        features = extract_features(generator.generate().sequence)
        assert np.all(features.values >= 0.0)
        assert np.all(features.values <= 1.0)

    def test_fraction_features_sum_to_one(self):
        generator = RandomTestGenerator(seed=11)
        features = extract_features(generator.generate().sequence)
        total = (
            features["write_fraction"]
            + features["read_fraction"]
            + features["nop_fraction"]
        )
        assert total == pytest.approx(1.0)


# -- per-vector references --------------------------------------------------


def checkerboard_distance_reference(address, data, data_bits):
    """Scalar distance of ``data`` to the nearer checkerboard phase."""
    phase0 = 0
    for bit in range(data_bits):
        phase0 |= ((address + bit) & 1) << bit
    phase1 = phase0 ^ ((1 << data_bits) - 1)
    dist0 = bin(data ^ phase0).count("1")
    dist1 = bin(data ^ phase1).count("1")
    return min(dist0, dist1) / data_bits


def extract_features_reference(sequence):
    """Feature extraction from per-cycle :class:`TestVector` objects."""
    n = len(sequence)
    addr_bits, data_bits = sequence.addr_bits, sequence.data_bits
    vectors = list(sequence)
    addresses = np.array([vec.address for vec in vectors], dtype=np.int64)
    is_read = np.array([vec.op is Operation.READ for vec in vectors])
    is_write = np.array([vec.op is Operation.WRITE for vec in vectors])
    is_active = np.array([vec.op is not Operation.NOP for vec in vectors])
    bus, held = [], 0
    for vec in vectors:
        if vec.op is Operation.WRITE:
            held = vec.data
        bus.append(held)
    bus_data = np.array(bus, dtype=np.int64)

    f = dict.fromkeys(FEATURE_NAMES, 0.0)
    if n >= 2:
        addr_hamming = _popcount(addresses[1:] ^ addresses[:-1])
        data_hamming = _popcount(bus_data[1:] ^ bus_data[:-1])
        same = addresses[1:] == addresses[:-1]
        msb = (addresses >> (addr_bits - 1)) & 1
        op_flip = (is_read[1:] & is_write[:-1]) | (is_write[1:] & is_read[:-1])
        f["addr_transition_density"] = float(np.mean(addr_hamming) / addr_bits)
        f["addr_msb_toggle_rate"] = float(np.mean(msb[1:] != msb[:-1]))
        f["addr_jump_distance"] = float(
            np.mean(np.abs(np.diff(addresses))) / max(1, (1 << addr_bits) - 1)
        )
        f["addr_repeat_run"] = min(1.0, _mean_run_length(same) / 8.0)
        f["data_toggle_density"] = float(np.mean(data_hamming) / data_bits)
        f["rw_alternation_rate"] = float(np.mean(op_flip))
        f["read_after_write_rate"] = float(np.mean(is_read[1:] & is_write[:-1] & same))
        f["same_addr_turnaround_rate"] = float(np.mean(same & op_flip))
        f["idle_to_active_rate"] = float(np.mean(is_active[1:] & ~is_active[:-1]))
        activity = (addr_hamming / addr_bits + data_hamming / data_bits) / 2.0
        window = min(PEAK_WINDOW_CYCLES, activity.size)
        rolling = np.convolve(activity, np.ones(window) / window, mode="valid")
        f["peak_window_activity"] = float(np.max(rolling))
    writes = [vec for vec in vectors if vec.op is Operation.WRITE]
    if writes:
        written = np.array([vec.data for vec in writes], dtype=np.int64)
        f["data_ones_density"] = float(np.mean(_popcount(written)) / data_bits)
        checker = np.array(
            [checkerboard_distance_reference(v.address, v.data, data_bits) for v in writes]
        )
        f["checkerboard_affinity"] = float(1.0 - np.mean(checker))
    f["write_fraction"] = float(np.mean(is_write))
    f["read_fraction"] = float(np.mean(is_read))
    f["nop_fraction"] = float(np.mean(~is_active))
    f["burst_read_run"] = min(1.0, _max_run_length(is_read) / 64.0)
    f["burst_write_run"] = min(1.0, _max_run_length(is_write) / 64.0)
    f["addr_coverage"] = float(np.unique(addresses).size / (1 << addr_bits))
    return np.clip(np.array([f[name] for name in FEATURE_NAMES]), 0.0, 1.0)


@st.composite
def sequences(draw, max_size=80):
    addr_bits = draw(st.integers(1, 12))
    data_bits = draw(st.integers(1, 16))
    cycles = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(OPERATIONS) - 1),
                st.integers(0, (1 << addr_bits) - 1),
                st.integers(0, (1 << data_bits) - 1),
            ),
            min_size=1,
            max_size=max_size,
        )
    )
    return VectorSequence(
        columns=tuple(zip(*cycles)), addr_bits=addr_bits, data_bits=data_bits
    )


class TestColumnarExtraction:
    @settings(max_examples=200, deadline=None)
    @given(sequence=sequences())
    def test_equals_per_vector_reference(self, sequence):
        assert np.array_equal(
            extract_features(sequence).values, extract_features_reference(sequence)
        )

    @pytest.mark.parametrize("style", ["uniform", "burst", "sweep", "hammer", "toggle"])
    def test_generated_tests_equal_per_vector_reference(self, style):
        generator = RandomTestGenerator(seed=5)
        for _ in range(3):
            sequence = generator.generate(style=style).sequence
            assert np.array_equal(
                extract_features(sequence).values, extract_features_reference(sequence)
            )

    @settings(max_examples=100, deadline=None)
    @given(sequence=sequences())
    def test_checkerboard_distance_matches_scalar_reference(self, sequence):
        distances = _checkerboard_distance(sequence.data, sequence.data_bits)
        expected = [
            checkerboard_distance_reference(a, d, sequence.data_bits)
            for a, d in zip(sequence.addresses.tolist(), sequence.data.tolist())
        ]
        assert distances.tolist() == expected

    def test_memoised_features_are_read_only(self):
        sequence = RandomTestGenerator(seed=2).generate().sequence
        features = sequence.features(extract_features)
        assert sequence.features(extract_features) is features
        with pytest.raises(ValueError):
            features.values[0] = 0.5
