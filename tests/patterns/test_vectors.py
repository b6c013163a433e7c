"""Unit and property tests for the vector-sequence data model."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.patterns.features import extract_features
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    OP_CODE,
    OPERATIONS,
    Operation,
    TestVector,
    VectorSequence,
    checkerboard_word,
    column_dtype,
    sequence_from_ops,
    solid_word,
)


def make_seq(n=10, addr_bits=10, data_bits=8, name="t"):
    vectors = [
        TestVector(Operation.WRITE if i % 2 else Operation.READ, i % 16, i % 256)
        for i in range(n)
    ]
    return VectorSequence(vectors, addr_bits, data_bits, name=name)


class TestTestVector:
    def test_validate_accepts_in_range(self):
        TestVector(Operation.WRITE, 1023, 255).validate(10, 8)

    def test_validate_rejects_address_overflow(self):
        with pytest.raises(ValueError, match="address"):
            TestVector(Operation.READ, 1024, 0).validate(10, 8)

    def test_validate_rejects_negative_address(self):
        with pytest.raises(ValueError, match="address"):
            TestVector(Operation.READ, -1, 0).validate(10, 8)

    def test_validate_rejects_data_overflow(self):
        with pytest.raises(ValueError, match="data"):
            TestVector(Operation.WRITE, 0, 256).validate(10, 8)

    def test_str_format(self):
        assert str(TestVector(Operation.WRITE, 0x2A, 0x0F)) == "w@002a:0f"


class TestVectorSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one cycle"):
            VectorSequence([])

    def test_validates_members_on_construction(self):
        with pytest.raises(ValueError):
            VectorSequence([TestVector(Operation.READ, 9999, 0)])

    def test_len_iter_getitem(self):
        seq = make_seq(5)
        assert len(seq) == 5
        assert list(seq)[2] == seq[2]

    def test_equality_ignores_name(self):
        a = make_seq(name="a")
        b = make_seq(name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_distinguishes_geometry(self):
        vecs = [TestVector(Operation.READ, 1, 1)]
        assert VectorSequence(vecs, 10, 8) != VectorSequence(vecs, 11, 8)

    def test_count_by_operation(self):
        seq = make_seq(10)
        assert seq.count(Operation.READ) == 5
        assert seq.count(Operation.WRITE) == 5
        assert seq.count(Operation.NOP) == 0

    def test_data_column_keeps_read_and_nop_data(self):
        seq = sequence_from_ops([("r", 0, 7), ("w", 1, 42), ("n", 2, 3)])
        assert seq.data.tolist() == [7, 42, 3]
        assert str(seq[0]) == "r@0000:07"

    def test_spliced_combines_prefix_and_suffix(self):
        a, b = make_seq(6), make_seq(8)
        child = a.spliced(b, 3, 5)
        assert len(child) == 3 + 3
        assert list(child)[:3] == list(a)[:3]
        assert list(child)[3:] == list(b)[5:]

    def test_spliced_rejects_geometry_mismatch(self):
        a = make_seq(6, addr_bits=10)
        b = make_seq(6, addr_bits=8)
        with pytest.raises(ValueError, match="geometry"):
            a.spliced(b, 3, 3)

    def test_spliced_never_empty(self):
        a, b = make_seq(4), make_seq(4)
        child = a.spliced(b, 0, 4)
        assert len(child) >= 1

    def test_spliced_clamps_to_max_cycles(self):
        a = make_seq(MAX_SEQUENCE_CYCLES)
        b = make_seq(MAX_SEQUENCE_CYCLES)
        child = a.spliced(b, MAX_SEQUENCE_CYCLES, 0)
        assert len(child) == MAX_SEQUENCE_CYCLES


class TestBackgrounds:
    def test_solid_word_values(self):
        assert solid_word(0, 8) == 0x00
        assert solid_word(1, 8) == 0xFF

    def test_solid_word_rejects_other_bits(self):
        with pytest.raises(ValueError):
            solid_word(2, 8)

    def test_checkerboard_alternates_between_addresses(self):
        w0 = checkerboard_word(0, 8)
        w1 = checkerboard_word(1, 8)
        assert w0 ^ w1 == 0xFF  # adjacent addresses are inverted

    def test_checkerboard_inverted_phase(self):
        assert checkerboard_word(0, 8) ^ checkerboard_word(0, 8, inverted=True) == 0xFF

    def test_checkerboard_bits_alternate(self):
        word = checkerboard_word(0, 8)
        bits = [(word >> i) & 1 for i in range(8)]
        assert bits == [0, 1, 0, 1, 0, 1, 0, 1]


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["r", "w", "n"]),
            st.integers(0, 1023),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_sequence_from_ops_roundtrip(ops):
    """Every well-formed op triple builds, and streams reproduce the input."""
    seq = sequence_from_ops(ops)
    assert len(seq) == len(ops)
    assert seq.addresses.tolist() == [a for _, a, _ in ops]
    for vec, (op, addr, data) in zip(seq, ops):
        assert vec.op.value == op
        assert vec.address == addr


@given(
    n_a=st.integers(1, 40),
    n_b=st.integers(1, 40),
    data=st.data(),
)
def test_spliced_length_property(n_a, n_b, data):
    """Splice length is len(prefix) + len(suffix), clamped and nonzero."""
    a, b = make_seq(n_a), make_seq(n_b)
    cut_a = data.draw(st.integers(0, n_a))
    cut_b = data.draw(st.integers(0, n_b))
    child = a.spliced(b, cut_a, cut_b)
    expected = max(1, cut_a + (n_b - cut_b))
    assert len(child) == min(expected, MAX_SEQUENCE_CYCLES)


# -- the columnar format ------------------------------------------------------


def cycle_lists(addr_bits=10, data_bits=8, max_size=60):
    """``(op code, address, data)`` cycles that fit the bus."""
    return st.lists(
        st.tuples(
            st.integers(0, len(OPERATIONS) - 1),
            st.integers(0, (1 << addr_bits) - 1),
            st.integers(0, (1 << data_bits) - 1),
        ),
        min_size=1,
        max_size=max_size,
    )


def from_cycles(cycles, addr_bits=10, data_bits=8):
    return VectorSequence(
        columns=tuple(zip(*cycles)), addr_bits=addr_bits, data_bits=data_bits
    )


def reference_error(vectors, addr_bits, data_bits):
    """The message of a per-vector validation: first bad cycle, address first."""
    for vec in vectors:
        if not 0 <= vec.address < (1 << addr_bits):
            return f"address {vec.address} out of range for {addr_bits} address bits"
        if not 0 <= vec.data < (1 << data_bits):
            return f"data {vec.data:#x} out of range for {data_bits} data bits"
    return None


@pytest.mark.parametrize(
    "bits, dtype",
    [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
     (17, np.uint32), (32, np.uint32), (33, np.uint64), (64, np.uint64)],
)
def test_column_dtype_is_the_narrowest_that_fits(bits, dtype):
    assert column_dtype(bits) == np.dtype(dtype)


def test_columns_are_narrow_and_read_only():
    seq = sequence_from_ops([("w", 1023, 255), ("r", 0, 0)], addr_bits=10, data_bits=8)
    assert (seq.ops.dtype, seq.addresses.dtype, seq.data.dtype) == (
        np.uint8, np.uint16, np.uint8,
    )
    for column in (seq.ops, seq.addresses, seq.data):
        with pytest.raises(ValueError):
            column[0] = 0


@given(
    bits=st.tuples(st.integers(1, 20), st.integers(1, 20)).flatmap(
        lambda bits: st.tuples(st.just(bits), cycle_lists(*bits))
    )
)
def test_columns_views_and_sequences_round_trip(bits):
    (addr_bits, data_bits), cycles = bits
    seq = from_cycles(cycles, addr_bits, data_bits)
    views = list(seq)
    assert [(OP_CODE[v.op], v.address, v.data) for v in views] == cycles
    assert [seq[i] for i in range(len(seq))] == views
    assert seq[-1] == views[-1]
    again = VectorSequence(views, addr_bits, data_bits)
    assert again == seq and hash(again) == hash(seq)
    assert seq.addresses.dtype == column_dtype(addr_bits)
    assert seq.data.dtype == column_dtype(data_bits)


@given(
    a=cycle_lists(addr_bits=2, data_bits=1, max_size=4),
    b=cycle_lists(addr_bits=2, data_bits=1, max_size=4),
    geometry_a=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    geometry_b=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
)
def test_equality_and_hash_agree_with_vector_tuples(a, b, geometry_a, geometry_b):
    seq_a = from_cycles(a, *geometry_a)
    seq_b = from_cycles(b, *geometry_b)
    as_tuple_a = (tuple(seq_a), seq_a.addr_bits, seq_a.data_bits)
    as_tuple_b = (tuple(seq_b), seq_b.addr_bits, seq_b.data_bits)
    assert (seq_a == seq_b) == (as_tuple_a == as_tuple_b)
    if seq_a == seq_b:
        assert hash(seq_a) == hash(seq_b)


def test_name_and_feature_memo_stay_outside_equality():
    a = make_seq(name="a")
    b = make_seq(name="b")
    a.features(extract_features)
    assert a == b and hash(a) == hash(b)


def no_extraction(sequence):
    raise AssertionError("features were extracted again")


@given(cycles=cycle_lists())
def test_pickle_round_trip_is_equal_and_carries_the_feature_memo(cycles):
    seq = from_cycles(cycles)
    features = seq.features(extract_features)
    clone = pickle.loads(pickle.dumps(seq))
    assert clone == seq and clone.name == seq.name
    assert np.array_equal(clone.features(no_extraction).values, features.values)
    for array in (clone.ops, clone.addresses, clone.data, clone.features(no_extraction).values):
        assert not array.flags.writeable


def test_features_are_extracted_once_per_sequence():
    seq = make_seq()
    first = seq.features(extract_features)
    assert seq.features(no_extraction) is first


def test_memoised_feature_array_is_read_only():
    values = make_seq().features(extract_features).values
    with pytest.raises(ValueError):
        values[0] = 1.0


@given(
    cycles=cycle_lists(max_size=8),
    bad_cycles=st.lists(
        st.tuples(
            st.integers(0, 10),
            st.sampled_from(["address", "data", "both"]),
            st.one_of(st.integers(-(1 << 70), -1), st.integers(1024, 1 << 70)),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_out_of_range_cycles_raise_the_per_vector_message(cycles, bad_cycles):
    cycles = list(cycles)
    for position, field, value in bad_cycles:
        op, address, data = cycles[position % len(cycles)]
        if field in ("address", "both"):
            address = value
        if field in ("data", "both"):
            data = value
        cycles.insert(position % (len(cycles) + 1), (op, address, data))
    vectors = [TestVector(OPERATIONS[o], a, d) for o, a, d in cycles]
    expected = reference_error(vectors, 10, 8)
    for build in (lambda: VectorSequence(vectors), lambda: from_cycles(cycles)):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == expected


@pytest.mark.parametrize("code", [-1, 3, 255])
def test_unknown_operation_codes_are_rejected(code):
    with pytest.raises(ValueError, match="operation code"):
        from_cycles([(0, 0, 0), (code, 0, 0)])


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="equal length"):
        VectorSequence(columns=([0, 1], [0], [0, 0]))
