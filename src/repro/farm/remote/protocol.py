"""Wire protocol of the distributed tester farm.

Everything on a farm socket is a **frame**: a 4-byte big-endian length
prefix followed by one UTF-8 JSON object.  Binary payloads — pickled
:class:`~repro.farm.workunit.WorkUnit`\\ s, outcomes, capture configs and
:class:`~repro.obs.collector.WorkerTelemetry` — travel as base64 strings
inside the JSON (the same encoding the checkpoint layer uses), so a
frame is always inspectable with nothing but ``json.loads``.

Frame vocabulary (the ``type`` field):

===============  =========  ====================================================
frame            direction  meaning
===============  =========  ====================================================
``hello``        →  broker  first frame of every connection; declares
                            ``role`` (``client``/``worker``/``stats``),
                            protocol ``version``, a ``worker`` name, an
                            optional ``campaign`` pin and a ``clock``
                            stamp (see below)
``welcome``      broker  →  hello accepted (carries the active campaign id)
``reject``       broker  →  hello refused (version/campaign mismatch)
``submit``       client  →  a batch of units + runner reference + capture
                            config + retry/lease policy
``accepted``     broker  →  submit acknowledged (pending/restored counts)
``request``      worker  →  pull one unit (work-stealing: workers ask,
                            the broker never pushes ahead of demand)
``unit``         broker  →  one leased unit (key, attempt, lease seconds)
``idle``         broker  →  nothing to steal right now; poll again later
``heartbeat``    worker  →  still executing (one-way, extends the lease)
``result``       worker  →  unit finished (outcome + telemetry) or failed
``ack``          broker  →  result accepted or suppressed as a duplicate
``leased``       broker  →  (to client) a worker took a unit
``retry``        broker  →  (to client) a unit will be re-issued
``done``         broker  →  (to client) a unit's accepted result
``unit_failed``  broker  →  (to client) a unit exhausted its attempts
``campaign_done`` broker →  (to client) every unit is done or failed;
                            also carries the broker's buffered telemetry
                            events and per-worker ``clock`` offsets
``stats``        both       (role ``stats``) observer asks; broker
                            answers with the live farm snapshot that
                            ``repro farm-top`` renders
``shutdown``     broker  →  the broker is going away; workers exit
``goodbye``      both    →  orderly connection close
===============  =========  ====================================================

The protocol is deliberately synchronous on the worker side — every
``request``/``result`` gets exactly one reply, and ``heartbeat`` gets
none — so a worker needs no frame correlation: the main thread is the
only reader, and the heartbeat thread only ever writes.

Clock stamps: ``hello``, ``submit`` and ``heartbeat`` frames may carry
``"clock": {"wall": time.time(), "mono": time.monotonic()}`` taken at
send time.  The broker folds each stamp into a per-peer min-filter
offset estimate (:mod:`repro.farm.remote.telemetry`) so multi-host
timelines can be aligned; peers that omit the stamp simply get no
correction.  All of these additions are *additive* — unknown frame
types and extra keys are ignored by every peer — so the protocol
version stays 1.

Trust model: workers execute the module-level callable the dispatch
frame *names* (``"package.module:function"``) and unpickle unit
payloads.  A farm is a trusted cluster of identical checkouts — never
point a worker at a broker you do not control.
"""

from __future__ import annotations

import base64
import importlib
import json
import pickle
import socket
import struct
from typing import Any, Callable, Dict, Optional, Tuple

#: Protocol revision; bumped on any incompatible frame change.  The
#: broker refuses hellos from another revision instead of mis-parsing.
PROTOCOL_VERSION = 1

#: Upper bound on one frame.  Generous — a frame carries at most one
#: unit's pickled payload plus its telemetry spool — but finite, so a
#: corrupt length prefix cannot make a peer try to allocate gigabytes.
MAX_FRAME_BYTES = 128 * 1024 * 1024

#: Default lease lifetime in seconds (broker, client request and a
#: worker's heartbeat cadence all fall back to it); generous against
#: heartbeat jitter, small enough that a SIGKILLed worker's units
#: re-issue promptly.
DEFAULT_LEASE_TIMEOUT_S = 30.0

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, oversized or mid-frame-truncated frame."""


def send_frame(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Serialize and send one frame (length prefix + JSON body)."""
    body = json.dumps(frame, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    """``size`` bytes, ``None`` on clean EOF *before* the first byte."""
    chunks = []
    received = 0
    while received < size:
        chunk = sock.recv(min(65536, size - received))
        if not chunk:
            if received == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({received}/{size} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF between frames.

    Raises
    ------
    ProtocolError
        Truncated frame, oversized length prefix, or a body that is not
        a JSON object.
    """
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between length and body")
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def pack(obj: Any) -> str:
    """Pickle + base64: how binary payloads ride inside JSON frames."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def unpack(text: str) -> Any:
    """Inverse of :func:`pack`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def runner_ref(runner: Callable) -> str:
    """The ``"module:qualname"`` reference a dispatch frame carries.

    Only module-level callables qualify — the same restriction the
    process pool's pickle-by-reference already imposes.
    """
    qualname = getattr(runner, "__qualname__", getattr(runner, "__name__", ""))
    module = getattr(runner, "__module__", "")
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ValueError(
            f"runner {runner!r} is not a module-level callable; remote "
            f"workers import runners by 'module:name' reference"
        )
    return f"{module}:{qualname}"


def resolve_runner(ref: str) -> Callable:
    """Import the callable a ``"module:name"`` reference names."""
    module_name, sep, attr = ref.partition(":")
    if not sep or not module_name or not attr or "." in attr:
        raise ProtocolError(f"malformed runner reference {ref!r}")
    module = importlib.import_module(module_name)
    runner = getattr(module, attr, None)
    if not callable(runner):
        raise ProtocolError(f"runner reference {ref!r} is not callable")
    return runner


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a helpful error."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"broker address must be HOST:PORT, got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"broker address must be HOST:PORT, got {address!r}"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(f"broker port out of range: {port}")
    return host, port
