"""Length-prefixed pickle frames over TCP — the federation wire format.

One frame is a fixed 5-byte header followed by a pickled payload::

    +----------------+--------------+------------------------+
    | length (u32 BE)| type (u8)    | pickle(payload)        |
    +----------------+--------------+------------------------+

``length`` counts the payload bytes only, ``type`` is a :class:`MsgType`
tag.  Stdlib ``socket`` / ``struct`` / ``pickle`` only — no dependencies.

The conversation (aggregator = server, worker = client):

* ``REGISTER``  worker -> server: ``{"protocol", "job_schema", "pid",
  "host"}`` — the versioned handshake.  A version mismatch is answered
  with an ``ERROR`` frame and the connection is closed, so an old worker
  fails loudly instead of mis-decoding jobs.
* ``WELCOME``   server -> worker: ``{"worker_id", "spec",
  "heartbeat_interval"}`` — the serialized
  :class:`~repro.experiments.ExperimentSpec` the worker rebuilds its
  replica from, plus how often to beat.
* ``JOB``       server -> worker: ``(seq, ClientJob)``.
* ``JOB_BATCH`` server -> worker: ``([(seq, ClientJob), ...],
  {version: ndarray})`` — one frame for a whole assignment batch.  Jobs in
  the batch may carry an :class:`XRefToken` instead of the broadcast
  vector; the dict inlines only the versions this worker has not yet been
  sent (the worker keeps a small version cache mirrored by the service),
  so the model ships once per version per worker, not once per job.
* ``RESULT``    worker -> server: ``(seq, ClientResult | None, error_str |
  None)`` — always per job, batched or not, which keeps requeue
  accounting exactly-once.
* ``HEARTBEAT`` worker -> server: ``None`` (liveness only).
* ``SHUTDOWN``  server -> worker: ``None`` — drain and exit.
* ``ERROR``     either direction: a string; the connection is done.

Two consumption styles are provided: blocking exact-read helpers
(:func:`send_frame` / :func:`recv_frame`) for the worker's simple loop, and
an incremental :class:`FrameDecoder` for the aggregator's non-blocking
``selectors`` loop, which receives arbitrary chunks.

Security note: frames are **pickle** and must only cross trusted links
(localhost, a private cluster network) — the same trust model as
``multiprocessing``'s own connections.
"""

from __future__ import annotations

import enum
import pickle
import socket
import struct
from dataclasses import dataclass

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_SCHEMA_VERSION",
    "MAX_FRAME_BYTES",
    "XREF_CACHE_VERSIONS",
    "MsgType",
    "XRefToken",
    "FrameDecoder",
    "FrameError",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "parse_address",
]

#: bumped on any change to the framing or handshake itself
#: (v2: JOB_BATCH frames + per-worker x_ref version dedup)
PROTOCOL_VERSION = 2
#: bumped on any change to the ClientJob/ClientResult dataclasses — a field
#: added to the job contract must not be silently dropped by an old worker
#: (v2: x_ref may arrive as an XRefToken resolved from the batch inline dict)
JOB_SCHEMA_VERSION = 2

_HEADER = struct.Struct(">IB")

#: refuse absurd frames before allocating for them (a corrupt or hostile
#: header would otherwise ask for gigabytes); 1 GiB clears any real job
MAX_FRAME_BYTES = 1 << 30


class MsgType(enum.IntEnum):
    REGISTER = 1
    WELCOME = 2
    JOB = 3
    RESULT = 4
    HEARTBEAT = 5
    SHUTDOWN = 6
    ERROR = 7
    JOB_BATCH = 8


@dataclass(frozen=True)
class XRefToken:
    """Placeholder for a broadcast vector already shipped to this worker.

    The aggregator versions each distinct ``x_ref`` object it is asked to
    ship and sends the actual array at most once per version per worker
    (inlined in a ``JOB_BATCH`` frame's version dict); every other job just
    carries this token, and the worker substitutes its cached copy before
    executing.  Both sides cap the cache at :data:`XREF_CACHE_VERSIONS`
    with identical insertion-ordered eviction, so the mirror never skews.
    """

    version: int


#: how many broadcast-vector versions each side of a connection caches;
#: async servers advance the version on every apply, so a small window
#: covers the in-flight set while bounding worker memory
XREF_CACHE_VERSIONS = 8


class FrameError(RuntimeError):
    """A malformed frame or a protocol violation on the wire."""


def encode_frame(msg_type: MsgType, payload: object = None) -> bytes:
    """One wire-ready frame: header + pickled payload."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(body), int(msg_type)) + body


def _decode_header(header: bytes) -> tuple[int, MsgType]:
    length, type_code = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame announces {length} bytes (corrupt header?)")
    try:
        return length, MsgType(type_code)
    except ValueError:
        raise FrameError(f"unknown message type {type_code}") from None


def _decode_body(msg_type: MsgType, body: bytes) -> object:
    """Unpickle one frame's payload; a body that does not unpickle is a
    :class:`FrameError`, whatever the unpickler raised."""
    try:
        return pickle.loads(body)
    except Exception as exc:  # a damaged pickle can raise almost any type
        raise FrameError(
            f"undecodable {msg_type.name} payload ({len(body)} bytes): {exc!r}"
        ) from exc


class FrameDecoder:
    """Incremental frame parser for a non-blocking receive loop.

    Feed it whatever ``recv`` returned; it buffers partial frames across
    feeds and yields every complete ``(MsgType, payload, frame_bytes)``
    message (``frame_bytes`` includes the header — the aggregator accounts
    per-job wire bytes from it).  A corrupt header or payload raises
    :class:`FrameError` and nothing else.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[MsgType, object, int]]:
        self._buf.extend(data)
        out: list[tuple[MsgType, object, int]] = []
        while True:
            if len(self._buf) < _HEADER.size:
                return out
            length, msg_type = _decode_header(bytes(self._buf[: _HEADER.size]))
            end = _HEADER.size + length
            if len(self._buf) < end:
                return out
            body = bytes(self._buf[_HEADER.size:end])
            del self._buf[:end]
            out.append((msg_type, _decode_body(msg_type, body), end))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or None on a clean EOF at a frame boundary."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise FrameError(
                    f"connection closed mid-frame ({len(buf)}/{n} bytes)"
                )
            return None
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock: socket.socket, msg_type: MsgType, payload: object = None) -> int:
    """Blocking send of one frame; returns the bytes put on the wire."""
    frame = encode_frame(msg_type, payload)
    sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket) -> tuple[MsgType, object] | None:
    """Blocking receive of one frame; None on a clean peer close, and
    :class:`FrameError` for a corrupt frame."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, msg_type = _decode_header(header)
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise FrameError("connection closed between header and payload")
    return msg_type, _decode_body(msg_type, body)


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"``; port 0 asks the OS for an ephemeral port."""
    host, sep, port_s = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"backend address must look like HOST:PORT, got {address!r}"
        )
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(
            f"backend address port must be an integer, got {port_s!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"backend address port out of range: {port}")
    return host, port
