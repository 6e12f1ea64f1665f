import itertools
import os
import socket
import stat
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarkit import (
    BindError,
    CaptureListener,
    CapturePacket,
    DataCube,
    FormatError,
    PacketReassembler,
    SizeError,
    TransportError,
    deinterleave,
    frame_byte_count,
    packetize,
    read_capture_file,
    reassemble,
    serialize_cube,
    write_capture_file,
)
import radarkit.capture
from radarkit.capture import MAX_PAYLOAD_BYTES

from conftest import random_int_cube_data, small_config


def _packets(payloads: list[bytes]) -> list[CapturePacket]:
    offsets = np.cumsum([0] + [len(p) for p in payloads[:-1]])
    return [
        CapturePacket(seq=i, byte_offset=int(off), payload=p)
        for i, (off, p) in enumerate(zip(offsets, payloads))
    ]


def test_reassemble_pure_reorder():
    pkts = _packets([b"aaaa", b"bbbb", b"cccc"])
    stream, report = reassemble([pkts[0], pkts[2], pkts[1]], window=2)
    assert stream == b"aaaabbbbcccc"
    assert report.reordered_count == 1
    assert report.packets_dropped == 0
    assert report.bytes_zero_filled == 0


def test_reassemble_zero_fills_gap_extent():
    payloads = [b"x" * 1456 for _ in range(6)]
    pkts = _packets(payloads)
    stream, report = reassemble([pkts[0]] + pkts[2:], window=2)
    assert len(stream) == 6 * 1456
    assert stream[1456:2912] == b"\x00" * 1456
    assert report.packets_dropped == 1
    assert report.bytes_zero_filled == 1456
    assert report.packets_received == 5
    # Conservation: received + dropped = max seq seen + 1.
    assert report.packets_received + report.packets_dropped == 6


@given(
    window=st.integers(1, 6),
    payloads=st.lists(st.binary(max_size=6), min_size=1, max_size=40),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_reassembler_recovers_any_bounded_reorder_and_loss(window, payloads, data):
    n = len(payloads)
    # Any arrival order in which no seq is displaced by more than `window`:
    # each position takes an unplaced seq within `window` of it, and must take
    # seq p - window if that one is still unplaced.
    order, unplaced = [], set(range(n))
    for p in range(n):
        if p - window in unplaced:
            seq = p - window
        else:
            seq = data.draw(st.sampled_from(sorted(
                s for s in unplaced if s <= p + window)))
        unplaced.remove(seq)
        order.append(seq)
    lost = data.draw(st.sets(st.integers(0, n - 2)) if n > 1 else st.just(set()))
    pkts = _packets(payloads)
    stream, report = reassemble(
        [pkts[s] for s in order if s not in lost], window=window)
    assert stream == b"".join(
        bytes(len(p)) if s in lost else p for s, p in enumerate(payloads))
    assert report.packets_received == n - len(lost)
    assert report.packets_received + report.packets_dropped == n


def test_reassembler_exhaustive_small_streams():
    # Every lossless order of 1-7 packets that displaces no seq by more than
    # the window, for windows 1-3, with every loss set that keeps the last seq.
    cases = 0
    for n in range(1, 8):
        payloads = [bytes([65 + s]) * (1 + s % 3) for s in range(n)]
        pkts = _packets(payloads)
        for window in (1, 2, 3):
            for order in itertools.permutations(range(n)):
                if any(abs(p - s) > window for p, s in enumerate(order)):
                    continue
                for k in range(n):
                    for lost in itertools.combinations(range(n - 1), k):
                        stream, report = reassemble(
                            [pkts[s] for s in order if s not in lost], window)
                        assert stream == b"".join(
                            bytes(len(p)) if s in lost else p
                            for s, p in enumerate(payloads)), (order, lost, window)
                        assert report.packets_received + report.packets_dropped == n
                        cases += 1
    assert cases == 67955


def test_gap_kept_open_while_its_seq_can_still_arrive():
    # Lossless order [0, 1, 3, 2] under window 1 with seqs 0 and 1 lost: seq 3
    # arrives more than 2 * window past seq 0, but seq 2 is still to come.
    pkts = _packets([b"a", b"b", b"c", b"d"])
    stream, report = reassemble([pkts[3], pkts[2]], window=1)
    assert stream == b"\x00\x00cd"
    assert report.packets_dropped == 2
    assert report.packets_received == 2


def test_gap_deadline_does_not_drift_with_earlier_losses():
    # An in-order stream losing every fifth seq, the first seq included: each
    # lost seq m is zero-filled, and seq m + 1 emitted, once seq
    # m + 2 * window + 1 has been fed, and not before, however many packets
    # were lost before m.
    window, n = 3, 120
    payloads = [bytes([1 + s % 255]) * (1 + s % 7) for s in range(n)]
    pkts = _packets(payloads)
    lost = set(range(0, n, 5))
    r = PacketReassembler(window)
    out = bytearray()
    checked, held = 0, set()
    for pkt in pkts:
        if pkt.seq in lost:
            continue
        out += r.feed(pkt)
        m = pkt.seq - 2 * window - 1
        if m in lost:
            start = pkts[m].byte_offset
            assert out[start:start + len(payloads[m]) + len(payloads[m + 1])] == (
                bytes(len(payloads[m])) + payloads[m + 1]), m
            checked += 1
        for m in lost:
            if m < pkt.seq <= m + 2 * window:
                assert len(out) <= pkts[m].byte_offset, (m, pkt.seq)
                held.add(m)
    assert checked == len(lost) - 1
    assert held == lost


def test_a_stray_seq_does_not_move_the_loss_deadline():
    # A seq far ahead of the stream arrives after the 11th packet. The seven
    # neighbour swaps after it stay within the window, so nothing is lost,
    # and the stray's own gap is too long for the quiet flush to give up.
    pkts = _packets([bytes([i]) * 8 for i in range(100)])
    order = list(range(100))
    for i in range(20, 90, 10):
        order[i], order[i + 1] = order[i + 1], order[i]
    arrivals = [pkts[i] for i in order]
    arrivals.insert(11, CapturePacket(10**6, 0, b"zzzz"))
    r = PacketReassembler(window=4)
    out = bytearray()
    for pkt in arrivals:
        out += r.feed(pkt)
    out += r.flush_quiet()
    assert out == b"".join(p.payload for p in pkts)
    assert r.report.packets_dropped == 0
    assert r.report.bytes_zero_filled == 0
    assert r.report.reordered_count == 7


def test_absurd_byte_offset_is_a_transport_error():
    # Seq 12 claims 2**47 bytes for the 2 lost seqs before it: more than two
    # datagrams can carry.
    pkts = [CapturePacket(i, 4 * i, b"abcd") for i in range(10)]
    with pytest.raises(TransportError, match=f"seq 12 byte_offset {2**47}"):
        reassemble(pkts + [CapturePacket(12, 2**47, b"zzzz")], window=4)


def test_largest_packetized_payloads_pass_the_byte_offset_bound():
    cfg = small_config(num_tx=2, num_rx=2, chirps=64, samples=128)
    cube = DataCube(random_int_cube_data(np.random.default_rng(7), cfg), 0, cfg)
    pkts = packetize([cube], payload_bytes=MAX_PAYLOAD_BYTES - 1)
    assert len(pkts) == 3
    stream, report = reassemble([pkts[0], pkts[2]], window=1)
    assert stream == pkts[0].payload + bytes(MAX_PAYLOAD_BYTES - 1) + pkts[2].payload
    assert report.packets_dropped == 1


def test_listener_raises_thread_error_after_completed_frames():
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=64)
    rng = np.random.default_rng(13)
    cube = DataCube(random_int_cube_data(rng, cfg), 0, cfg)
    listener = CaptureListener(0, cfg, window=4, host="127.0.0.1")
    try:
        _send_packets(packetize([cube], payload_bytes=1456), listener.port)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(b"abc", ("127.0.0.1", listener.port))
        frames = listener.frames(idle_timeout_s=5.0)
        got, _ = next(frames)
        assert np.array_equal(got.data, cube.data)
        with pytest.raises(TransportError, match="3 bytes"):
            next(frames)
        with pytest.raises(TransportError):
            list(listener.frames(idle_timeout_s=5.0))
    finally:
        listener.stop()


def test_backpressure_drops_the_oldest_frames_but_none_for_the_end(monkeypatch):
    monkeypatch.setattr(radarkit.capture, "_QUEUE_FRAMES", 2)
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=64)
    rng = np.random.default_rng(17)
    cubes = [DataCube(random_int_cube_data(rng, cfg), i, cfg) for i in range(4)]
    listener = CaptureListener(0, cfg, window=4, host="127.0.0.1")
    try:
        _send_packets(packetize(cubes, payload_bytes=1456), listener.port)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(b"abc", ("127.0.0.1", listener.port))
        # Nothing is read until the thread has queued all four frames and ended
        # on the short datagram.
        listener._thread.join(timeout=10.0)
        assert not listener._thread.is_alive()
        got = []
        with pytest.raises(TransportError, match="3 bytes"):
            for cube, _ in listener.frames(idle_timeout_s=5.0):
                got.append(cube)
        assert [c.frame_index for c in got] == [2, 3]
        assert all(np.array_equal(c.data, cubes[c.frame_index].data) for c in got)
        assert listener.frames_dropped_backpressure == 2
    finally:
        listener.stop()


def test_reassemble_empty_stream():
    stream, report = reassemble([], window=1)
    assert stream == b""
    assert report == type(report)()


def test_reassemble_window_validation():
    with pytest.raises(ValueError):
        reassemble([], window=0)


def test_duplicate_with_identical_payload_ignored():
    pkts = _packets([b"aaaa", b"bbbb"])
    stream, report = reassemble([pkts[0], pkts[0], pkts[1]], window=2)
    assert stream == b"aaaabbbb"
    assert report.packets_received == 2


def test_duplicate_with_conflicting_payload_raises():
    pkts = _packets([b"aaaa", b"bbbb", b"cccc"])
    conflict = CapturePacket(seq=2, byte_offset=pkts[2].byte_offset, payload=b"dddd")
    with pytest.raises(TransportError, match="seq 2"):
        reassemble([pkts[0], pkts[2], conflict, pkts[1]], window=3)


def test_permutation_recovery_within_window():
    # Any permutation displacing each packet <= window reassembles bit-exact.
    payloads = [bytes([i % 256]) * 64 for i in range(120)]
    pkts = _packets(payloads)
    expected = b"".join(payloads)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, 12))
        keys = np.arange(len(pkts)) + rng.uniform(0.0, w, len(pkts))
        order = np.argsort(keys, kind="stable")
        displacement = np.abs(np.argsort(order) - np.arange(len(pkts))).max()
        assert displacement <= w
        stream, report = reassemble([pkts[i] for i in order], window=w)
        assert stream == expected
        assert report.packets_dropped == 0
        assert report.packets_received == len(pkts)


def test_random_loss_accounting():
    payloads = [bytes([i % 256]) * 128 for i in range(200)]
    pkts = _packets(payloads)
    rng = np.random.default_rng(42)
    keep = [p for p in pkts if rng.random() > 0.05 or p.seq in (0, 199)]
    stream, report = reassemble(keep, window=4)
    dropped = len(pkts) - len(keep)
    assert report.packets_dropped == dropped
    assert report.bytes_zero_filled == dropped * 128
    assert report.packets_received + report.packets_dropped == 200
    assert len(stream) == 200 * 128


def test_packet_encode_decode_round_trip():
    pkt = CapturePacket(seq=7, byte_offset=123456789012, payload=b"hello")
    decoded = CapturePacket.decode(pkt.encode())
    assert decoded == pkt
    with pytest.raises(TransportError):
        CapturePacket.decode(b"short")


def test_deinterleave_all_zero(c0):
    cube = deinterleave(b"\x00" * frame_byte_count(c0), c0)
    assert not cube.data.any()


def test_deinterleave_first_slot_little_endian(c0):
    # int16 I=1 then Q=-2, little-endian, in the first sample slot.
    buf = bytearray(frame_byte_count(c0))
    buf[0:4] = (1).to_bytes(2, "little", signed=True) + (-2).to_bytes(
        2, "little", signed=True
    )
    cube = deinterleave(bytes(buf), c0)
    assert cube.data[0, 0, 0] == 1 - 2j
    assert not cube.data.reshape(-1)[1:].any()


def test_deinterleave_size_mismatch(c0):
    with pytest.raises(SizeError, match=str(frame_byte_count(c0))):
        deinterleave(b"\x00" * 100, c0)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_deinterleave_holds_a_read_only_view_of_the_frame_bytes(monkeypatch):
    cfg = small_config(num_tx=2, num_rx=2, chirps=3, samples=8)
    rng = np.random.default_rng(11)
    buf = rng.integers(-32768, 32768, frame_byte_count(cfg) // 2).astype("<i2").tobytes()
    monkeypatch.setattr(np, "isfinite", _refuse)  # int16 holds no NaN or Inf
    cube = deinterleave(buf, cfg, 4)
    monkeypatch.undo()
    wire = np.frombuffer(buf, "<i2")
    assert cube.frame_index == 4 and cube.shape == (6, 2, 8)
    assert cube.iq.dtype == np.dtype("<i2") and cube.iq.shape == (6, 2, 8, 2)
    assert np.shares_memory(cube.iq, wire) and not cube.iq.flags.writeable
    assert "data" not in vars(cube)  # decoded only when asked for
    expected = wire.astype(np.float64).view(np.complex128).reshape(cube.shape)
    assert np.array_equal(cube.data, expected)
    assert cube.data is cube.data and not cube.data.flags.writeable
    with pytest.raises(ValueError):
        cube.data[0, 0, 0] = 0


def test_serialize_passes_a_wire_cube_through(monkeypatch):
    cfg = small_config(num_tx=1, num_rx=2, chirps=4, samples=8)
    buf = np.arange(frame_byte_count(cfg) // 2, dtype="<i2")[::-1].tobytes()
    cube = deinterleave(buf, cfg)
    for name in ("rint", "clip"):
        monkeypatch.setattr(np, name, _refuse)
    assert serialize_cube(cube) == buf
    assert "data" not in vars(cube)


@pytest.mark.parametrize("num_tx,num_rx,chirps,samples", [
    (1, 1, 2, 4), (2, 2, 4, 8), (3, 2, 2, 16), (2, 4, 8, 32), (4, 3, 4, 8),
])
def test_serialize_deinterleave_identity(num_tx, num_rx, chirps, samples):
    cfg = small_config(num_tx=num_tx, num_rx=num_rx, chirps=chirps, samples=samples)
    rng = np.random.default_rng(num_tx * 100 + num_rx)
    cube = DataCube(random_int_cube_data(rng, cfg), 0, cfg)
    assert np.array_equal(deinterleave(serialize_cube(cube), cfg).data, cube.data)


def test_serialize_quantization_rounds_and_saturates():
    cfg = small_config(num_tx=1, num_rx=1, chirps=2, samples=4)
    data = np.zeros((2, 1, 4), dtype=complex)
    data[0, 0, 0] = 1.4 - 1.6j
    data[0, 0, 1] = 40000.0 - 40000.0j
    data[0, 0, 2] = 2.5 + 3.5j  # ties go to even
    cube = DataCube(data, 0, cfg)
    out = deinterleave(serialize_cube(cube), cfg)
    assert out.data[0, 0, 0] == 1 - 2j
    assert out.data[0, 0, 1] == 32767 - 32768j
    assert out.data[0, 0, 2] == 2 + 4j


def test_capture_file_round_trip(tmp_path, c0):
    rng = np.random.default_rng(3)
    cubes = [DataCube(random_int_cube_data(rng, c0), i, c0) for i in range(3)]
    path = tmp_path / "capture.orad"
    write_capture_file(path, c0, cubes)
    cfg2, cubes2 = read_capture_file(path)
    cubes2 = list(cubes2)
    assert cfg2 == c0
    assert len(cubes2) == 3
    for a, b in zip(cubes, cubes2):
        assert np.array_equal(a.data, b.data)
    assert [c.frame_index for c in cubes2] == [0, 1, 2]


def test_capture_file_written_through_a_symlink(tmp_path, c0):
    real = tmp_path / "real.orad"
    real.write_bytes(b"an earlier capture")
    link = tmp_path / "link.orad"
    link.symlink_to(real)
    assert write_capture_file(link, c0, []) == 0
    assert link.is_symlink()
    assert read_capture_file(real)[0] == c0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.orad", "real.orad"]


def test_capture_file_written_in_place_to_a_device(tmp_path, c0):
    # An existing path that is not a regular file is written, never replaced.
    devnull = Path(os.devnull)
    rng = np.random.default_rng(4)
    cubes = [DataCube(random_int_cube_data(rng, c0), i, c0) for i in range(2)]
    before = set(devnull.parent.glob(f"{devnull.name}.*.tmp"))
    assert write_capture_file(devnull, c0, cubes) == 2
    assert stat.S_ISCHR(devnull.stat().st_mode)
    assert set(devnull.parent.glob(f"{devnull.name}.*.tmp")) == before


def test_capture_file_truncated(tmp_path, c0):
    rng = np.random.default_rng(3)
    path = tmp_path / "capture.orad"
    write_capture_file(path, c0, [DataCube(random_int_cube_data(rng, c0), 0, c0)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-100])
    with pytest.raises(FormatError, match="expected"):
        read_capture_file(path)


def test_capture_file_bad_magic(tmp_path, c0):
    path = tmp_path / "capture.orad"
    write_capture_file(path, c0, [])
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XRAD"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_capture_file(path)


def test_capture_file_bad_version(tmp_path, c0):
    path = tmp_path / "capture.orad"
    write_capture_file(path, c0, [])
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_capture_file(path)


def _send_packets(packets, port, pace_every=64):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for i, pkt in enumerate(packets):
            sock.sendto(pkt.encode(), ("127.0.0.1", port))
            if i % pace_every == pace_every - 1:
                time.sleep(0.0005)
    finally:
        sock.close()


def test_listen_loopback_zero_loss():
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=64)
    rng = np.random.default_rng(11)
    cubes = [DataCube(random_int_cube_data(rng, cfg), i, cfg) for i in range(3)]
    listener = CaptureListener(0, cfg, window=8, host="127.0.0.1")
    try:
        _send_packets(packetize(cubes, payload_bytes=1456), listener.port)
        received = list(listener.frames(max_frames=3, idle_timeout_s=5.0))
    finally:
        listener.stop()
    assert len(received) == 3
    for (got, report), sent in zip(received, cubes):
        assert np.array_equal(got.data, sent.data)
        assert report.packets_dropped == 0


def test_listen_with_drops_keeps_frame_cadence():
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=64)
    rng = np.random.default_rng(12)
    cubes = [DataCube(random_int_cube_data(rng, cfg), i, cfg) for i in range(3)]
    packets = packetize(cubes, payload_bytes=1456)
    window = 4
    # Drop a mid-stream packet; keep the tail so the gap deadline passes.
    packets = [p for p in packets if p.seq != 3]
    listener = CaptureListener(0, cfg, window=window, host="127.0.0.1")
    try:
        _send_packets(packets, listener.port)
        received = list(listener.frames(max_frames=3, idle_timeout_s=5.0))
    finally:
        listener.stop()
    assert len(received) == 3
    total_zero = sum(rep.bytes_zero_filled for _, rep in received)
    total_dropped = sum(rep.packets_dropped for _, rep in received)
    assert total_dropped == 1
    assert total_zero == 1456


def test_listen_delivers_the_stream_end():
    # The one packet lost sits among the last `window` seqs, so no later seq
    # gives it up: the quiet socket does, and the last frame is delivered.
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=64)
    rng = np.random.default_rng(14)
    cubes = [DataCube(random_int_cube_data(rng, cfg), i, cfg) for i in range(3)]
    packets = packetize(cubes, payload_bytes=1456)
    lost = packets[-3]
    listener = CaptureListener(0, cfg, window=4, host="127.0.0.1")
    try:
        _send_packets([p for p in packets if p is not lost], listener.port)
        received = list(listener.frames(max_frames=3, idle_timeout_s=2.0))
    finally:
        listener.stop()
    assert len(received) == 3
    sent = b"".join(serialize_cube(c) for c in cubes)
    end = lost.byte_offset + len(lost.payload)
    expected = sent[:lost.byte_offset] + bytes(len(lost.payload)) + sent[end:]
    assert b"".join(serialize_cube(got) for got, _ in received) == expected
    assert sum(rep.packets_dropped for _, rep in received) == 1


def test_a_socket_error_ends_the_stream_after_its_frames():
    # Frame 1's lost packet is among its last `window` seqs, so only the
    # quiet flush gives it up; the socket then fails under the running
    # listener, which must not pass for a sender that stopped.
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=64)
    rng = np.random.default_rng(15)
    cubes = [DataCube(random_int_cube_data(rng, cfg), i, cfg) for i in range(2)]
    packets = packetize(cubes, payload_bytes=1456)
    lost = packets[-2]
    listener = CaptureListener(0, cfg, window=4, host="127.0.0.1")
    try:
        _send_packets([p for p in packets if p is not lost], listener.port)
        frames = listener.frames(idle_timeout_s=5.0)
        assert next(frames)[0].iq.tobytes() == serialize_cube(cubes[0])
        # Datagrams still in the socket when it closes are lost with it.
        deadline = time.monotonic() + 5.0
        while (listener._reassembler.report.packets_received < len(packets) - 1
               and time.monotonic() < deadline):
            time.sleep(0.001)
        listener._sock.close()
        second, report = next(frames)
        assert second.frame_index == 1 and report.packets_dropped == 1
        with pytest.raises(OSError):
            next(frames)
        with pytest.raises(OSError):
            list(listener.frames(idle_timeout_s=5.0))
    finally:
        listener.stop()


def test_listener_rejects_an_absurd_byte_offset():
    cfg = small_config()
    listener = CaptureListener(0, cfg, window=2, host="127.0.0.1")
    try:
        _send_packets([CapturePacket(seq=1, byte_offset=2**47, payload=b"x")],
                      listener.port)
        start = time.monotonic()
        with pytest.raises(TransportError, match=f"seq 1 byte_offset {2**47}"):
            list(listener.frames(idle_timeout_s=5.0))
        assert time.monotonic() - start < 1.5
    finally:
        listener.stop()


def test_listen_no_traffic_stays_alive():
    cfg = small_config()
    listener = CaptureListener(0, cfg, window=2, host="127.0.0.1")
    try:
        got = list(listener.frames(max_frames=1, idle_timeout_s=0.3))
        assert got == []
        assert listener._thread.is_alive()
    finally:
        listener.stop()


def test_bind_error_on_taken_port():
    cfg = small_config()
    listener = CaptureListener(0, cfg, window=2, host="127.0.0.1")
    try:
        with pytest.raises(BindError):
            CaptureListener(listener.port, cfg, window=2, host="127.0.0.1")
    finally:
        listener.stop()


def test_capture_file_non_object_blob(tmp_path, c0):
    path = tmp_path / "capture.orad"
    write_capture_file(path, c0, [])
    raw = path.read_bytes()
    blob_len = int.from_bytes(raw[6:10], "little")
    path.write_bytes(raw[:6] + (1).to_bytes(4, "little") + b"5" + raw[10 + blob_len:])
    with pytest.raises(FormatError, match="object"):
        read_capture_file(path)


def _frame_buffer(cube: DataCube):
    """The object whose memory a wire cube views."""
    a = cube.iq
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.base.obj


@settings(max_examples=100, deadline=None)
@given(
    payload_words=st.integers(1, 80),
    window=st.integers(1, 8),
    data=st.data(),
    n_frames=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_listener_ingest_hands_over_the_capture_frames(payload_words, window, data,
                                                      n_frames, seed):
    # The listener's path without its socket: datagrams, displaced by at most
    # `window` places, go through decode -> feed -> ingest.
    cfg = small_config(num_tx=2, num_rx=2, chirps=4, samples=8)  # 512-byte frames
    rng = np.random.default_rng(seed)
    cubes = [DataCube(random_int_cube_data(rng, cfg), i, cfg) for i in range(n_frames)]
    datagrams = [p.encode() for p in packetize(cubes, payload_bytes=4 * payload_words)]
    displacement = data.draw(st.integers(0, window))
    keys = np.arange(len(datagrams)) + rng.uniform(0.0, displacement, len(datagrams))
    order = np.argsort(keys, kind="stable")
    assert np.abs(np.argsort(order) - np.arange(len(order))).max() <= window
    stream = radarkit.capture._FrameStream(cfg, window)
    for i in order:
        stream._receive(datagrams[i])
    stream._ingest(stream._reassembler.flush_quiet())
    stream._end()
    got = list(stream.frames(idle_timeout_s=0))
    assert [cube.frame_index for cube, _ in got] == list(range(n_frames))
    for (cube, _), sent in zip(got, cubes):
        assert cube.iq.tobytes() == serialize_cube(sent)
    assert sum(report.packets_received for _, report in got) == len(datagrams)
    assert not any(report.packets_dropped or report.bytes_zero_filled for _, report in got)


def test_handed_over_frames_are_exact_size_buffers(c0):
    # 721 datagrams of 1456 bytes a C0 frame; a buffer grown by appends kept
    # up to 14% spare capacity.
    rng = np.random.default_rng(21)
    cubes = [DataCube(random_int_cube_data(rng, c0), i, c0) for i in range(3)]
    stream = radarkit.capture._FrameStream(c0, window=8)
    for pkt in packetize(cubes):
        stream._receive(pkt.encode())
    got = list(stream.frames(idle_timeout_s=0))
    assert len(got) == 3
    n = frame_byte_count(c0)
    for cube, _ in got:
        buf = _frame_buffer(cube)
        assert isinstance(buf, bytearray)
        assert len(buf) == n
        assert sys.getsizeof(buf) <= sys.getsizeof(bytearray()) + n + 16


def test_final_rows_are_reported_in_steps_while_a_frame_arrives():
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=8)  # 32 rows of 64 bytes
    rng = np.random.default_rng(22)
    cube = DataCube(random_int_cube_data(rng, cfg), 0, cfg)
    sent = serialize_cube(cube)
    pkts = packetize([cube], payload_bytes=36)
    stream = radarkit.capture._FrameStream(cfg, window=4)
    calls = []

    def on_rows(seen, rows):
        calls.append((seen, rows, seen.iq.tobytes()[:rows * 64]))

    # Seq 5 comes last: the rows behind it are final only once it arrives.
    for pkt in pkts[:5] + pkts[6:12]:
        stream._receive(pkt.encode())
        assert list(stream.frames(idle_timeout_s=0, on_rows=on_rows)) == []
    assert {rows for _, rows, _ in calls} == {2}  # 180 bytes: one step of 2 rows
    stream._receive(pkts[5].encode())
    assert list(stream.frames(idle_timeout_s=0, on_rows=on_rows)) == []
    assert calls[-1][1] == 6  # 432 bytes
    got = []
    for pkt in pkts[12:]:
        stream._receive(pkt.encode())
        got += stream.frames(idle_timeout_s=0, on_rows=on_rows)
    assert [c.iq.tobytes() for c, _ in got] == [sent]
    for seen, rows, head in calls:
        assert rows % 2 == 0 and 0 < rows < 32
        assert seen is got[0][0] and head == sent[:rows * 64]
