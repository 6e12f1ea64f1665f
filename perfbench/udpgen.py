"""Open-loop UDP generator for the live-udp workload.

    python3 perfbench/udpgen.py --capture C0.orad [C1.orad ...] --frames N --port P --seed S --result G.json

One process, one socket. It reads the frames of the capture files, repeats them
to make N measured frames plus pad frames, and builds every datagram (in the
wire format of ``radarkit.capture``) before the schedule starts. Datagram
slot k of the send order is due at ``t0 + k * slot``, so packets are spread
evenly over each frame period like a continuous ADC stream at LIVE_FPS
frames/s; a withheld packet leaves its slot silent. Sends are paced by due
time, never by the receiver.

G.json holds ``t0``, the due time of the last datagram of each measured
frame, the number of withheld packets and the generator's maximum lag behind
its schedule (a run-validity figure).
"""

from __future__ import annotations

import argparse
import json
import socket
import struct
import sys
import time
from pathlib import Path

import numpy as np

from spans import now
from workloads import FRAME_BYTES, LIVE_FPS, PAYLOAD_BYTES, live_plan

START_DELAY_S = 0.05


def capture_frames(path: Path) -> bytes:
    """Frame bytes of a capture file ("ORAD" | u16 | u32 n | blob | u32 frames | frames)."""
    data = path.read_bytes()
    if data[:4] != b"ORAD":
        raise ValueError(f"{path} is not a capture file")
    (blob_len,) = struct.unpack_from("<I", data, 6)
    start = 10 + blob_len
    (n_frames,) = struct.unpack_from("<I", data, start)
    body = data[start + 4:]
    if n_frames < 1 or len(body) != n_frames * FRAME_BYTES:
        raise ValueError(f"{path}: {n_frames} frames but {len(body)} frame bytes")
    return body


def build_datagrams(period: bytes, order: np.ndarray, withheld: set[int]):
    """(slot, header, payload) for every sent packet, in send order.

    The stream repeats ``period``; payloads are views into it except where a
    packet straddles the repeat.
    """
    view = memoryview(period)
    n = len(period)
    out = []
    for slot, seq in enumerate(order.tolist()):
        if seq in withheld:
            continue
        offset = seq * PAYLOAD_BYTES
        start = offset % n
        end = start + PAYLOAD_BYTES
        payload = view[start:end] if end <= n else bytes(view[start:]) + bytes(view[: end - n])
        header = struct.pack("<I", seq) + offset.to_bytes(6, "little")
        out.append((slot, header, payload))
    return out


def frame_due_slots(order: np.ndarray, withheld: set[int], n_frames: int) -> list[int]:
    """Latest send slot among the sent packets that carry bytes of each frame."""
    last = [-1] * n_frames
    for slot, seq in enumerate(order.tolist()):
        if seq in withheld:
            continue
        first_byte = seq * PAYLOAD_BYTES
        last_byte = first_byte + PAYLOAD_BYTES - 1
        for frame in range(first_byte // FRAME_BYTES, min(last_byte // FRAME_BYTES, n_frames - 1) + 1):
            last[frame] = max(last[frame], slot)
    return last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--capture", type=Path, nargs="+", required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    period = b"".join(capture_frames(path) for path in args.capture)
    order, withheld_arr, pad_frames = live_plan(args.seed, args.frames)
    withheld = set(withheld_arr.tolist())
    datagrams = build_datagrams(period, order, withheld)
    due_slots = frame_due_slots(order, withheld, args.frames)
    slot_s = PAYLOAD_BYTES / FRAME_BYTES / LIVE_FPS

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    dest = ("127.0.0.1", args.port)
    max_lag = 0.0
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
        t0 = now() + START_DELAY_S
        for slot, header, payload in datagrams:
            due = t0 + slot * slot_s
            t = now()
            if t < due:
                time.sleep(due - t)
                t = now()
            max_lag = max(max_lag, t - due)
            sock.sendmsg([header, payload], (), 0, dest)
    finally:
        sock.close()

    result = {
        "t0": t0,
        "slot_s": slot_s,
        "frame_due": [t0 + s * slot_s for s in due_slots],
        "withheld": len(withheld),
        "sent": len(datagrams),
        "pad_frames": pad_frames,
        "max_lag_s": max_lag,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
