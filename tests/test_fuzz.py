"""Fuzzing the two byte-stream readers: the wire's frame decoder and the
journal tailer.

* Frames: streams of frames this program encoded, cut at any offset, with
  header lengths and types edited, fed in any chunking.  The decoders raise
  :class:`~repro.net.FrameError` and nothing else, and a chunked feed decodes
  what one feed of the same bytes decodes.  Bodies are only ever truncated
  or re-framed, never bit-flipped, so every unpickle runs on a prefix of a
  pickle the program wrote.
* Journals: valid records mixed with torn, non-UTF-8 and non-object lines,
  appended in any chunking.  ``poll`` never raises and returns exactly the
  valid records, in order, and the polls joined equal one ``read_journal``.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FrameDecoder, FrameError, MsgType, XRefToken, encode_frame, recv_frame
from repro.observe.metrics import JournalTailer, read_journal

# frames shaped like the real conversation's, arrays included
FRAMES = [
    encode_frame(MsgType.REGISTER, {"protocol": 2, "job_schema": 3, "pid": 7, "host": "h"}),
    encode_frame(MsgType.HEARTBEAT),
    encode_frame(MsgType.JOB_BATCH, ([(0, {"x_ref": XRefToken(3)})], {3: np.arange(6.0)})),
    encode_frame(MsgType.RESULT, (5, {"update": np.linspace(0.0, 1.0, 4)}, None)),
    encode_frame(MsgType.ERROR, "aggregator error: été"),
]
HEADER = 5


def _feed(chunks: list[bytes]) -> tuple[list, bool]:
    """Messages decoded before the first ``FrameError``, and whether one
    came; any other exception escapes and fails the test."""
    dec, out = FrameDecoder(), []
    for chunk in chunks:
        try:
            out += dec.feed(chunk)
        except FrameError:
            return out, True
    return out, False


def _canon(messages) -> list:
    return [(t, pickle.dumps(p), n) for t, p, n in messages]


@st.composite
def corrupt_streams(draw):
    """(stream, chunks): encoded frames with header edits, truncated, cut
    into chunks."""
    frames = [bytearray(FRAMES[i]) for i in draw(
        st.lists(st.integers(0, len(FRAMES) - 1), min_size=1, max_size=4))]
    for frame in frames:
        if draw(st.booleans()):
            length = draw(st.one_of(
                st.integers(0, len(frame) + 8), st.integers(0, 2**32 - 1)))
            frame[:4] = struct.pack(">I", length)
        if draw(st.booleans()):
            frame[4] = draw(st.integers(0, 255))
    stream = b"".join(frames)
    stream = stream[:draw(st.integers(0, len(stream)))]
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    bounds = [0, *cuts, len(stream)]
    return stream, [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestFrameFuzz:
    @settings(max_examples=300, deadline=None)
    @given(case=corrupt_streams())
    def test_decoder_raises_only_frame_error(self, case):
        stream, chunks = case
        out, err = _feed(chunks)
        one, one_err = _feed([stream])
        assert err == one_err
        if not err:
            assert _canon(out) == _canon(one)

    @settings(max_examples=60, deadline=None)
    @given(case=corrupt_streams())
    def test_recv_frame_raises_only_frame_error(self, case):
        stream, _ = case
        a, b = socket.socketpair()
        try:
            a.sendall(stream)
            a.close()
            got = []
            try:
                while (msg := recv_frame(b)) is not None:
                    got.append(msg)
            except FrameError:
                pass
            # byte by byte, the decoder yields every frame before the bad one
            each, _ = _feed([stream[i:i + 1] for i in range(len(stream))])
            assert [(t, pickle.dumps(p)) for t, p in got] == [
                (t, pickle.dumps(p)) for t, p, _ in each]
        finally:
            b.close()

    @pytest.mark.parametrize("index", range(len(FRAMES)))
    def test_every_truncated_body_is_a_frame_error(self, index):
        """A header announcing any strict prefix of a written pickle."""
        frame = FRAMES[index]
        body = frame[HEADER:]
        for cut in range(len(body)):
            truncated = struct.pack(">IB", cut, frame[4]) + body[:cut]
            with pytest.raises(FrameError, match="undecodable"):
                FrameDecoder().feed(truncated)

    @pytest.mark.parametrize("cut", [1, 9, -1])
    def test_truncated_pickle_names_type_and_length(self, cut):
        body = FRAMES[3][HEADER:][:cut]
        frame = struct.pack(">IB", len(body), int(MsgType.RESULT)) + body
        with pytest.raises(FrameError, match=f"RESULT payload \\({len(body)} bytes\\)"):
            FrameDecoder().feed(frame)
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            with pytest.raises(FrameError, match="undecodable RESULT"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


RECORDS = st.dictionaries(
    st.sampled_from(["type", "seq", "round", "t", "note"]),
    st.one_of(st.integers(-5, 10**6), st.text(max_size=6), st.booleans(), st.none()),
    max_size=4,
)


@st.composite
def journal_lines(draw):
    """(lines, expected records): each line one journal line's bytes."""
    lines, expected = [], []
    for kind in draw(st.lists(
            st.sampled_from(["record", "torn", "non-utf8", "non-object", "blank"]),
            max_size=12)):
        if kind == "record":
            rec = draw(RECORDS)
            lines.append(json.dumps(rec, ensure_ascii=False).encode())
            expected.append(rec)
        elif kind == "torn":  # a strict prefix of a record, cut anywhere
            text = json.dumps(draw(RECORDS), ensure_ascii=False).encode()
            lines.append(text[:draw(st.integers(0, len(text) - 1))])
        elif kind == "non-utf8":
            junk = draw(st.binary(max_size=12)).replace(b"\n", b"")
            lines.append(junk[: len(junk) // 2] + b"\xff" + junk[len(junk) // 2:])
        elif kind == "non-object":
            value = draw(st.one_of(
                st.integers(), st.lists(st.integers(), max_size=3), st.text(max_size=5),
                st.booleans(), st.none(), st.floats(allow_nan=False)))
            lines.append(json.dumps(value).encode())
        else:
            lines.append(b"   ")
    return lines, expected


class TestJournalFuzz:
    @settings(max_examples=150, deadline=None)
    @given(case=journal_lines(), tail=st.binary(max_size=8), data=st.data())
    def test_poll_returns_exactly_the_valid_records(self, case, tail, data):
        lines, expected = case
        # a crashed writer may leave a final line with no newline
        blob = b"".join(line + b"\n" for line in lines) + tail.replace(b"\n", b"")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=8)))
        bounds = [0, *cuts, len(blob)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal.jsonl")
            tailer = JournalTailer(path)
            polled = tailer.poll()  # no file yet
            for lo, hi in zip(bounds, bounds[1:]):
                with open(path, "ab") as f:
                    f.write(blob[lo:hi])
                polled += tailer.poll()
            polled += tailer.poll()
            assert polled == expected
            assert read_journal(path) == expected

    def test_non_utf8_line_between_records(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal.jsonl")
            with open(path, "wb") as f:
                f.write(b'{"type": "meta"}\n\xff\xfe garbage\n42\n[1, 2]\n{"type": "end"}\n')
            assert read_journal(path) == [{"type": "meta"}, {"type": "end"}]
