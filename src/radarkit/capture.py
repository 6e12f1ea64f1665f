"""Raw capture ingest: UDP packet reassembly, byte-layout decode, capture files.

Wire format, per datagram:

    [u32 seq LE][u48 byte_offset LE][payload]      payload <= 65497 bytes

``seq`` counts packets from 0; ``byte_offset`` is the cumulative payload byte
count before this packet, which lets reassembly infer the byte extent of lost
packets and zero-fill it instead of dropping frames.

Frame byte layout: chirps outer, rx middle, samples inner; each sample is
int16 I then int16 Q, little-endian. This matches the DataCube axis order, so
``deinterleave`` is a single reshape of the frame's bytes: a cube of int16
(I, Q) pairs that shares the bytes' memory. The range stage casts them to
complex as it windows them.

Live, each frame is one ``DataCube`` from its first byte: ``CaptureListener``
makes it, by ``deinterleave``, of a buffer of exactly the frame's size when
the frame starts, and copies the frame's bytes into that buffer as they are
reassembled. Reassembled bytes never change, so the whole chirp rows they
complete are final: the listener reports them with the frame's cube to a
consumer waiting for that frame, which can run the range stage on them
before the frame is complete, and hands the same cube over once it is.

Capture file layout:

    "ORAD" | u16 version(=1) LE | u32 blob length | config blob | u32 frames | frame bytes...

where the config blob is canonical key-sorted JSON text of the RadarConfig.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    WIRE_DTYPE,
    ConfigError,
    DataCube,
    RadarConfig,
    RadarError,
    decode_jsonable,
    encode_jsonable,
)

MAGIC = b"ORAD"
FORMAT_VERSION = 1
PACKET_HEADER_BYTES = 10
DEFAULT_PAYLOAD_BYTES = 1456  # fits a 1500-byte MTU with the 10-byte header
MAX_PAYLOAD_BYTES = 65507 - PACKET_HEADER_BYTES  # largest IPv4 UDP payload, less the header


class TransportError(RadarError):
    """Packet stream is internally inconsistent (e.g. conflicting duplicates)."""


class SizeError(RadarError):
    """Byte buffer length does not match the frame size implied by the config."""


class FormatError(RadarError):
    """Capture file violates the on-disk format."""


class BindError(RadarError):
    """UDP listen port could not be bound."""


class CapturePacket(NamedTuple):
    """One sequenced UDP payload unit."""

    seq: int
    byte_offset: int
    payload: bytes  # a memoryview of the datagram once decoded

    def encode(self) -> bytes:
        """Serialize to the on-wire datagram."""
        return (
            struct.pack("<I", self.seq)
            + int(self.byte_offset).to_bytes(6, "little")
            + self.payload
        )

    @classmethod
    def decode(cls, datagram: bytes) -> "CapturePacket":
        """Parse a datagram; the payload is a view of it, not a copy."""
        if len(datagram) < PACKET_HEADER_BYTES:
            raise TransportError(
                f"datagram of {len(datagram)} bytes is shorter than the "
                f"{PACKET_HEADER_BYTES}-byte header"
            )
        seq, offset_low, offset_high = struct.unpack_from("<IIH", datagram)
        return cls(seq, offset_low | offset_high << 32, memoryview(datagram)[10:])


@dataclass(frozen=True)
class DropReport:
    """Loss/reorder accounting of one reassembly span."""

    packets_received: int = 0
    packets_dropped: int = 0
    bytes_zero_filled: int = 0
    reordered_count: int = 0

    def __sub__(self, other: "DropReport") -> "DropReport":
        return DropReport(
            self.packets_received - other.packets_received,
            self.packets_dropped - other.packets_dropped,
            self.bytes_zero_filled - other.bytes_zero_filled,
            self.reordered_count - other.reordered_count,
        )


class PacketReassembler:
    """Incremental seq-ordered byte reassembly with bounded reorder tolerance.

    ``window`` is the maximum out-of-order displacement tolerated: a packet
    displaced at most ``window`` places from its position in the full,
    lossless order is always recovered. One rule gives the gap
    next_seq .. p-1 before the oldest pending seq p up (declares it lost and
    zero-fills its byte extent): the seq arriving is greater than
    p - 1 + 2 * window. That seq sits after position p - 1 + window of the
    lossless order, the last position any seq of the gap can take, and
    arrivals keep that order. Earlier losses do not move the rule, nor does
    a stray seq far ahead of the stream once it has arrived. ``flush`` gives
    every gap up, ``flush_quiet`` those of at most 2 * window seqs. A packet
    is reordered if a seq above it, at most 2 * window past next_seq, came first.

    Late arrivals of already-emitted or already-dropped seqs are ignored and
    not counted, which keeps packets_received + packets_dropped equal to
    max_seq_seen + 1 after ``flush``.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.window = window
        self._pending: dict[int, CapturePacket] = {}
        self._next_seq = 0
        self._emitted_bytes = 0
        self._max_seq = -1
        self._received = 0
        self._dropped = 0
        self._zero_filled = 0
        self._reordered = 0

    @property
    def report(self) -> DropReport:
        return DropReport(
            packets_received=self._received,
            packets_dropped=self._dropped,
            bytes_zero_filled=self._zero_filled,
            reordered_count=self._reordered,
        )

    def feed(self, packet: CapturePacket) -> bytearray:
        """Accept one packet; return whatever bytes became emittable."""
        out = bytearray()
        seq = packet.seq
        if seq < self._next_seq:
            return out  # late duplicate of an emitted or zero-filled seq
        if seq in self._pending:
            if self._pending[seq].payload != packet.payload:
                raise TransportError(f"duplicate seq {seq} with conflicting payload")
            return out
        if seq < self._max_seq:
            self._reordered += 1
        if seq - self._next_seq <= 2 * self.window:
            self._max_seq = max(self._max_seq, seq)
        self._pending[seq] = packet
        self._received += 1
        self._drain_in_order(out)
        while self._pending and seq > min(self._pending) - 1 + 2 * self.window:
            self._give_up_gap(out)
        return out

    def flush(self) -> bytearray:
        """End of stream: zero-fill every known gap and emit the remainder."""
        out = bytearray()
        while self._pending:
            self._give_up_gap(out)
        return out

    def flush_quiet(self) -> bytearray:
        """Sender paused: ``flush`` up to the first gap of over 2 * window seqs,
        whose seq (a stray far ahead of the stream) stays pending as in ``feed``."""
        out = bytearray()
        while self._pending and min(self._pending) - self._next_seq <= 2 * self.window:
            self._give_up_gap(out)
        return out

    def _drain_in_order(self, out: bytearray) -> None:
        while self._next_seq in self._pending:
            pkt = self._pending.pop(self._next_seq)
            if pkt.byte_offset != self._emitted_bytes:
                raise TransportError(
                    f"seq {pkt.seq} byte_offset {pkt.byte_offset} != "
                    f"{self._emitted_bytes} bytes emitted"
                )
            out += pkt.payload
            self._emitted_bytes += len(pkt.payload)
            self._next_seq += 1

    def _give_up_gap(self, out: bytearray) -> None:
        """Zero-fill the gap before the oldest pending seq into ``out``, then drain."""
        seq = min(self._pending)
        offset = self._pending[seq].byte_offset
        gap_packets = seq - self._next_seq
        gap_bytes = offset - self._emitted_bytes
        if not 0 <= gap_bytes <= gap_packets * MAX_PAYLOAD_BYTES:
            raise TransportError(
                f"seq {seq} byte_offset {offset} is not within {gap_packets} "
                f"packets of {self._emitted_bytes} bytes emitted"
            )
        self._dropped += gap_packets
        self._zero_filled += gap_bytes
        self._emitted_bytes = offset
        self._next_seq = seq
        out += bytes(gap_bytes)
        self._drain_in_order(out)


def reassemble(
    packets: Iterable[CapturePacket], window: int
) -> tuple[bytes, DropReport]:
    """Reassemble a finite packet stream into its seq-ordered byte stream."""
    r = PacketReassembler(window)
    out = bytearray()
    for pkt in packets:
        out += r.feed(pkt)
    out += r.flush()
    return bytes(out), r.report


def frame_byte_count(cfg: RadarConfig) -> int:
    """Serialized size of one frame: chirps * rx * samples * 4 bytes."""
    return cfg.chirps_per_frame * cfg.num_rx * cfg.samples_per_chirp * 4


def quantize(iq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Quantize float (I, Q) pairs into ``out``, a ``WIRE_DTYPE`` array of
    ``iq``'s shape: round to nearest (ties to even), saturate to int16 range.
    ``iq`` is rounded in place on the way. Returns ``out``."""
    np.rint(iq, out=iq)
    np.clip(iq, -32768, 32767, out=iq)
    np.copyto(out, iq, casting="unsafe")
    return out


def serialize_cube(cube: DataCube) -> bytes:
    """Encode a cube in the frame byte layout.

    A cube of wire pairs (``deinterleave``'s) is written as it is held.
    Complex samples are quantized (``quantize``).
    """
    if cube.iq.dtype == WIRE_DTYPE:
        return cube.iq.tobytes()
    return quantize(cube.iq.copy(), np.empty(cube.iq.shape, WIRE_DTYPE)).tobytes()


def deinterleave(buf: bytes, cfg: RadarConfig, frame_index: int = 0) -> DataCube:
    """One frame's bytes as a cube of wire pairs: a read-only, zero-copy
    (chirp, rx, sample, 2) int16 view of ``buf``, decoded to complex only
    where ``DataCube.data`` is read (see ``DataCube``)."""
    expected = frame_byte_count(cfg)
    if len(buf) != expected:
        raise SizeError(f"expected {expected} frame bytes, got {len(buf)}")
    pairs = np.frombuffer(buf, dtype=WIRE_DTYPE).reshape(
        cfg.chirps_per_frame, cfg.num_rx, cfg.samples_per_chirp, 2
    )
    return DataCube(pairs, frame_index, cfg)


def _config_blob(cfg: RadarConfig) -> bytes:
    return json.dumps(
        encode_jsonable(cfg), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _config_from_blob(blob: bytes) -> RadarConfig:
    try:
        d = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # JSON and UTF-8 decode errors are ValueErrors
        raise FormatError(f"config blob is not readable JSON: {e}") from e
    try:
        return decode_jsonable(RadarConfig, d)
    except ConfigError as e:
        raise FormatError(f"config blob invalid: {e}") from e


@dataclass(frozen=True)
class CaptureFileHeader:
    """Decoded capture file header."""

    version: int
    config: RadarConfig
    frame_count: int


def write_capture_file(path, cfg: RadarConfig, cubes: Iterable[DataCube]) -> int:
    """Write cubes to a capture file as they are drawn; return the frame count.

    ``read_capture_file`` is the inverse. Each cube is written before the
    next is drawn (wire pairs straight from their buffer), and the frame
    count goes into the header after the last. The file is written under a
    temporary name beside ``path`` (beside the file a symlink names) that
    replaces ``path`` at the end, or is removed if anything fails, so
    ``path`` never holds part of a capture. An existing ``path`` that is not
    a regular file (e.g. ``/dev/null``) is written in place, never replaced;
    it must be seekable.
    """
    blob = _config_blob(cfg)
    header = MAGIC + struct.pack("<HI", FORMAT_VERSION, len(blob)) + blob
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header + struct.pack("<I", 0))
            count = 0
            for cube in cubes:
                f.write(cube.iq if cube.iq.dtype == WIRE_DTYPE else serialize_cube(cube))
                count += 1
            f.seek(len(header))
            f.write(struct.pack("<I", count))
        if not in_place:
            os.replace(tmp, target)
    except BaseException:
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    return count


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated {what}: expected {n} bytes, got {len(buf)}")
    return buf


def read_capture_header(f) -> CaptureFileHeader:
    magic = _read_exact(f, 4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = struct.unpack("<H", _read_exact(f, 2, "version"))[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}, expected {FORMAT_VERSION}")
    blob_len = struct.unpack("<I", _read_exact(f, 4, "config length"))[0]
    cfg = _config_from_blob(_read_exact(f, blob_len, "config blob"))
    frame_count = struct.unpack("<I", _read_exact(f, 4, "frame count"))[0]
    return CaptureFileHeader(version=version, config=cfg, frame_count=frame_count)


def read_capture_file(path) -> tuple[RadarConfig, Iterator[DataCube]]:
    """Read a capture file's config and check that every frame is present.

    Returns the config and an iterator that decodes one frame per ``next``,
    so memory does not grow with the capture. A file too short for its frame
    count raises ``FormatError`` here, before any frame is decoded. The
    iterator opens the file on its first ``next`` and closes it once it is
    exhausted or closed.
    """
    with open(path, "rb") as f:
        header = read_capture_header(f)
        data_offset = f.tell()
        size = os.fstat(f.fileno()).st_size
    per_frame = frame_byte_count(header.config)
    complete, tail = divmod(size - data_offset, per_frame)
    if complete < header.frame_count:
        raise FormatError(
            f"truncated frame {complete}: expected {per_frame} bytes, got {tail}"
        )
    return header.config, _frames(path, data_offset, header)


def _frames(path, data_offset: int, header: CaptureFileHeader) -> Iterator[DataCube]:
    per_frame = frame_byte_count(header.config)
    with open(path, "rb") as f:
        f.seek(data_offset)
        for i in range(header.frame_count):
            yield deinterleave(_read_exact(f, per_frame, f"frame {i}"), header.config, i)


_QUEUE_FRAMES = 64  # completed frames held for the consumer before drop-oldest
_ROW_STEPS = 16  # the final rows of a frame in progress are reported in 16ths of it


class _FrameStream:
    """Datagrams in, complete frames out: ``CaptureListener`` without its
    socket and thread, which ``_receive`` each datagram and ``_end`` the
    stream.

    Each frame is a cube (``deinterleave``) of a buffer of exactly the
    frame's size from the moment the frame starts; its bytes are copied into
    the buffer as they are reassembled, and the cube is handed over once the
    buffer is full. Completed frames wait in a queue of at most 64 frames
    with a drop-oldest backpressure policy (``frames_dropped_backpressure``
    counts casualties). Bytes the reassembler has emitted never change, so
    the chirp rows they complete are final; ``frames`` reports them for the
    frame in progress, in steps of a 16th of its chirps, to a consumer
    waiting for that frame.
    """

    def __init__(self, cfg: RadarConfig, window: int):
        self.cfg = cfg
        self._frame_bytes = frame_byte_count(cfg)
        self._row_bytes = self._frame_bytes // cfg.chirps_per_frame
        self._step_rows = -(-cfg.chirps_per_frame // _ROW_STEPS)
        self._reassembler = PacketReassembler(window)
        self._start_frame(0)
        self._last_report = DropReport()
        self.frames_dropped_backpressure = 0
        # Shared with the consumer under _ready: completed (cube, report)
        # items; (cube of the frame in progress, final chirp rows), or None
        # while none of its rows are reported; whether the stream has ended,
        # and with which error.
        self._ready = threading.Condition()
        self._queue: collections.deque = collections.deque()
        self._progress: Optional[tuple[DataCube, int]] = None
        self._ended = False
        self._error: Optional[Exception] = None

    def _start_frame(self, frame_index: int):
        """Begin a frame: an empty exact-size buffer and its cube."""
        self._frame = bytearray(self._frame_bytes)
        self._cube = deinterleave(self._frame, self.cfg, frame_index)
        self._filled = self._rows_reported = 0

    def _receive(self, datagram: bytes):
        self._ingest(self._reassembler.feed(CapturePacket.decode(datagram)))

    def _ingest(self, data: bytearray):
        """Copy reassembled bytes into the frame in progress, handing each
        frame over as it fills, then report that frame's final rows."""
        data = memoryview(data)
        while data:
            n = min(len(data), self._frame_bytes - self._filled)
            self._frame[self._filled:self._filled + n] = data[:n]
            self._filled += n
            data = data[n:]
            if self._filled == self._frame_bytes:
                self._hand_over()
        rows = self._filled // self._row_bytes // self._step_rows * self._step_rows
        if rows > self._rows_reported:
            self._rows_reported = rows
            with self._ready:
                self._progress = (self._cube, rows)
                self._ready.notify()

    def _hand_over(self):
        report = self._reassembler.report
        item = (self._cube, report - self._last_report)
        self._last_report = report
        with self._ready:
            while len(self._queue) >= _QUEUE_FRAMES:
                self._queue.popleft()
                self.frames_dropped_backpressure += 1
            self._queue.append(item)
            self._progress = None
            self._ready.notify()
        self._start_frame(self._cube.frame_index + 1)

    def _end(self, error: Optional[Exception] = None):
        """End the stream: ``frames`` yields what is queued, then raises ``error``."""
        with self._ready:
            self._ended = True
            self._error = error
            self._ready.notify()

    def frames(
        self,
        max_frames: Optional[int] = None,
        idle_timeout_s: Optional[float] = None,
        on_rows: Optional[Callable[[DataCube, int], None]] = None,
    ) -> Iterator[tuple[DataCube, DropReport]]:
        """Yield (cube, per-frame DropReport) until a limit or idle timeout.

        The idle timeout is the longest wait for one frame. While no frame
        is queued, ``on_rows(cube, rows)`` is called in the calling thread
        whenever more chirp rows of the frame in progress are final:
        ``cube`` is that frame's cube, the one this later yields, and its
        first ``rows`` chirp rows will not change. Also stops once the
        stream has ended and its frames are yielded, raising the error that
        ended it, if any, on this and every later call.
        """
        yielded = 0
        seen = None  # the progress last passed to on_rows

        def ready() -> bool:
            progress = self._progress
            return bool(self._queue) or self._ended or (
                on_rows is not None and progress is not None and progress is not seen)

        while max_frames is None or yielded < max_frames:
            deadline = None if idle_timeout_s is None else time.monotonic() + idle_timeout_s
            while True:
                with self._ready:
                    left = None if deadline is None else max(0.0, deadline - time.monotonic())
                    if not self._ready.wait_for(ready, left):
                        return  # idle timeout
                    if self._queue:
                        item = self._queue.popleft()
                        break
                    if self._ended:
                        if self._error is not None:
                            raise self._error
                        return
                    seen = self._progress
                on_rows(*seen)
            yield item
            yielded += 1


class CaptureListener(_FrameStream):
    """Background UDP receiver turning datagrams into complete frames.

    Runs as a daemon thread that reassembles datagrams into frames as
    ``_FrameStream`` describes; take them with ``frames`` and end the thread
    with ``stop``. 0.2 s of silence gives gaps up
    (``PacketReassembler.flush_quiet``), which delivers a stream's last
    frame. An error that ends the thread (a short datagram, a
    ``byte_offset`` the stream contradicts, a socket that fails after the
    quiet flush of what it delivered) is raised by ``frames`` once the
    frames completed before it have been yielded.
    """

    def __init__(
        self,
        port: int,
        cfg: RadarConfig,
        window: int,
        host: str = "0.0.0.0",
    ):
        super().__init__(cfg, window)
        self._stop = threading.Event()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 23)
            self._sock.bind((host, port))
        except (OSError, OverflowError) as e:
            self._sock.close()
            raise BindError(f"cannot bind UDP {host}:{port}: {e}") from e
        self._sock.settimeout(0.2)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def _run(self):
        error = None
        try:
            while not self._stop.is_set():
                try:
                    datagram = self._sock.recv(65536)
                except socket.timeout:
                    self._ingest(self._reassembler.flush_quiet())
                    continue
                except OSError as e:  # the socket failed: flush, then end with its error
                    error = e
                    break
                self._receive(datagram)
            self._ingest(self._reassembler.flush_quiet())
        except Exception as e:
            error = e
        finally:
            self._sock.close()
            self._end(error)

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
