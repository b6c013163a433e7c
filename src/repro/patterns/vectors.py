"""Test vector sequences.

A :class:`TestVector` describes one tester cycle applied to the device under
test: an operation (read / write / nop), an address and — for writes — a data
word.  A :class:`VectorSequence` is an immutable, validated run of cycles,
stored as columns; the paper uses short sequences of 100 to 1000 cycles
so that a worst-case test can be pin-pointed precisely (section 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

#: Default address width of the simulated memory test chip (1024 words).
DEFAULT_ADDR_BITS = 10
#: Default data width of the simulated memory test chip.
DEFAULT_DATA_BITS = 8

#: Sequence-length bounds recommended by the paper (section 3): "we define
#: small test sequences in between 100 to 1000 vector cycles".
MIN_SEQUENCE_CYCLES = 100
MAX_SEQUENCE_CYCLES = 1000


class Operation(enum.Enum):
    """Per-cycle tester operation."""

    READ = "r"
    WRITE = "w"
    NOP = "n"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TestVector:
    """One tester cycle: ``(operation, address, data)``.

    ``data`` is only meaningful for :attr:`Operation.WRITE`; reads compare
    against the behavioural memory model inside the device simulator, and
    NOPs idle the bus for one cycle.
    """

    op: Operation
    address: int = 0
    data: int = 0

    def validate(self, addr_bits: int, data_bits: int) -> None:
        """Raise :class:`ValueError` if the vector does not fit the DUT bus."""
        VectorSequence([self], addr_bits, data_bits)

    def __str__(self) -> str:
        return f"{self.op.value}@{self.address:04x}:{self.data:02x}"


#: Operation of each code in :attr:`VectorSequence.ops`, and back.
OPERATIONS: Tuple[Operation, ...] = (Operation.NOP, Operation.READ, Operation.WRITE)
OP_CODE: Dict[Operation, int] = {op: code for code, op in enumerate(OPERATIONS)}
OP_NOP, OP_READ, OP_WRITE = range(len(OPERATIONS))


class VectorSequence:
    """An immutable sequence of tester cycles, stored as three columns.

    ``ops`` holds each cycle's :data:`OPERATIONS` code as ``uint8``;
    ``addresses`` and ``data`` hold every cycle's address and data word,
    reads and NOPs included, in the narrowest unsigned type that fits
    ``addr_bits`` and ``data_bits``.  Built from ``vectors`` or from
    ``columns=(ops, addresses, data)``, validated once as arrays, and
    read-only.  Iterating or indexing yields :class:`TestVector` views.
    """

    __slots__ = ("ops", "addresses", "data", "addr_bits", "data_bits", "name", "_features")

    def __init__(
        self,
        vectors: Iterable[TestVector] = (),
        addr_bits: int = DEFAULT_ADDR_BITS,
        data_bits: int = DEFAULT_DATA_BITS,
        name: str = "",
        *,
        columns: Optional[Tuple[Sequence[int], Sequence[int], Sequence[int]]] = None,
    ) -> None:
        if columns is None:
            cycles = [(OP_CODE[vec.op], vec.address, vec.data) for vec in vectors]
            columns = tuple(zip(*cycles)) or ((), (), ())
        ops, addresses, data = (_int_column(values) for values in columns)
        if not ops.size:
            raise ValueError("a vector sequence must contain at least one cycle")
        if ops.ndim != 1 or addresses.shape != ops.shape or data.shape != ops.shape:
            raise ValueError("columns must be one-dimensional and of equal length")
        bad_op = (ops < 0) | (ops >= len(OPERATIONS))
        bad_addr = (addresses < 0) | (addresses >= (1 << addr_bits))
        bad_data = (data < 0) | (data >= (1 << data_bits))
        bad = bad_op | bad_addr | bad_data
        if bad.any():  # report the first bad cycle, its address before its data
            cycle = int(np.argmax(bad))
            if bad_op[cycle]:
                raise ValueError(f"operation code {int(ops[cycle])} at cycle {cycle}")
            if bad_addr[cycle]:
                value, bits = int(addresses[cycle]), addr_bits
                raise ValueError(f"address {value} out of range for {bits} address bits")
            value, bits = int(data[cycle]), data_bits
            raise ValueError(f"data {value:#x} out of range for {bits} data bits")
        self.ops = ops.astype(np.uint8)
        self.addresses = addresses.astype(column_dtype(addr_bits))
        self.data = data.astype(column_dtype(data_bits))
        self.addr_bits = addr_bits
        self.data_bits = data_bits
        self.name = name
        self._features: Any = None
        self._freeze()

    @property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ops, addresses, data)``."""
        return self.ops, self.addresses, self.data

    def _freeze(self) -> None:
        for array in self.columns:
            array.setflags(write=False)
        if self._features is not None:
            self._features.values.setflags(write=False)

    # The feature memo travels in pickles, e.g. to farm workers.
    def __getstate__(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._freeze()

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TestVector]:
        for code, address, data in zip(*(column.tolist() for column in self.columns)):
            yield TestVector(OPERATIONS[code], address, data)

    def __getitem__(self, index: int) -> TestVector:
        code, address, data = (int(column[index]) for column in self.columns)
        return TestVector(OPERATIONS[code], address, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorSequence):
            return NotImplemented
        return (self.addr_bits, self.data_bits) == (other.addr_bits, other.data_bits) and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self.columns, other.columns)
        )

    def __hash__(self) -> int:
        cycles = tuple(column.tobytes() for column in self.columns)
        return hash((cycles, self.addr_bits, self.data_bits))

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"VectorSequence({label!r}, cycles={len(self)})"

    # -- derived views ------------------------------------------------------
    def features(self, extract: Callable[["VectorSequence"], Any]) -> Any:
        """``extract(self)`` computed once, kept read-only outside ``==``/``hash``.

        ``extract`` is :func:`repro.patterns.features.extract_features`;
        every chip, encoder and assessor holding the sequence shares it.
        """
        if self._features is None:
            self._features = extract(self)
            self._freeze()
        return self._features

    def count(self, op: Operation) -> int:
        """Number of cycles performing ``op``."""
        return int(np.count_nonzero(self.ops == OP_CODE[op]))

    def spliced(
        self, other: "VectorSequence", cut_self: int, cut_other: int
    ) -> "VectorSequence":
        """Single-point crossover helper: ``self[:cut_self] + other[cut_other:]``.

        The result is clamped to :data:`MAX_SEQUENCE_CYCLES` and keeps at
        least one cycle (``self``'s first); bus geometry must match.
        """
        if (self.addr_bits, self.data_bits) != (other.addr_bits, other.data_bits):
            raise ValueError("cannot splice sequences with different bus geometry")
        columns = [
            np.concatenate((mine[:cut_self], theirs[cut_other:]))
            for mine, theirs in zip(self.columns, other.columns)
        ]
        if not columns[0].size:
            columns = [mine[:1] for mine in self.columns]
        columns = [column[:MAX_SEQUENCE_CYCLES] for column in columns]
        return VectorSequence((), self.addr_bits, self.data_bits, self.name, columns=columns)


def column_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned integer type holding ``bits``-bit words."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bits <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    raise ValueError(f"{bits}-bit words do not fit a 64-bit column")


def _int_column(values: Sequence[int]) -> np.ndarray:
    """``values`` unnarrowed (as Python ints beyond int64), to validate as given."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def checkerboard_word(address: int, data_bits: int, inverted: bool = False) -> int:
    """Checkerboard data background word for ``address``.

    Alternating 0/1 cells in both address and bit dimensions — the classic
    memory-test background.  ``inverted`` flips every bit.
    """
    base = 0
    for bit in range(data_bits):
        cell = (address + bit) & 1
        base |= cell << bit
    if inverted:
        base ^= (1 << data_bits) - 1
    return base


def solid_word(value_bit: int, data_bits: int) -> int:
    """All-zeros (``value_bit == 0``) or all-ones data background word."""
    if value_bit not in (0, 1):
        raise ValueError("value_bit must be 0 or 1")
    return ((1 << data_bits) - 1) if value_bit else 0


def sequence_from_ops(
    ops: Sequence[Tuple[str, int, int]],
    addr_bits: int = DEFAULT_ADDR_BITS,
    data_bits: int = DEFAULT_DATA_BITS,
    name: str = "",
) -> VectorSequence:
    """Build a sequence from ``("r"|"w"|"n", address, data)`` triples.

    Convenience constructor for tests and examples.
    """
    vectors = [TestVector(Operation(op), addr, data) for op, addr, data in ops]
    return VectorSequence(vectors, addr_bits, data_bits, name=name)
