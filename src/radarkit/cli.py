"""Command-line front end: simulate, process, listen, replay, bench.

``process`` and ``listen`` differ only in their frame source: both run
``_run``, which processes the frames through ``iter_pipeline``, writes them
in frame order on one writer thread and writes ``run_manifest.json`` after
the last frame. While ``listen`` waits for a frame, it range-processes the
frame's chirp rows that are final (``pipeline.range_ahead``). Every
failure, a failed write included, ends the command with exit code 1 and a
single-line JSON error object on stderr, e.g.
{"error": "FormatError", "message": "bad magic ..."}.
"""

from __future__ import annotations

import argparse
import functools
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .capture import CaptureListener, read_capture_file, write_capture_file
from .core import ConfigError, DataCube, RadarError, decode_jsonable
from .pipeline import (
    PipelineConfig,
    iter_pipeline,
    load_json,
    load_pipeline_config,
    range_ahead,
    run_pipeline,
    write_drop_reports,
    write_frame_outputs,
    write_run_manifest,
)
from .simulate import NoiseSpec, PointTarget, packetize, stream_capture


@dataclass(frozen=True)
class _SceneFrame:
    frame: int
    targets: tuple[PointTarget, ...] = ()


@dataclass(frozen=True)
class _Scene:
    """Scene file schema; ``n_frames`` defaults to the last listed frame + 1."""

    noise_power: float = 0.0
    seed: int = 0
    frames: tuple[_SceneFrame, ...] = ()
    n_frames: Optional[int] = None


def _load_scene(path) -> tuple[list[tuple[int, list[PointTarget]]], NoiseSpec, int]:
    d = decode_jsonable(_Scene, load_json(path), "scene")
    scene = [(entry.frame, list(entry.targets)) for entry in d.frames]
    n_frames = d.n_frames
    if n_frames is None:
        n_frames = max((f for f, _ in scene), default=0) + 1
    return scene, NoiseSpec(noise_power=d.noise_power, seed=d.seed), n_frames


def _cmd_simulate(args) -> int:
    cfg = load_pipeline_config(args.config)
    scene, noise, n_frames = _load_scene(args.scene)
    written = write_capture_file(
        args.out, cfg.radar, stream_capture(cfg.radar, scene, noise, n_frames))
    print(f"wrote {written} frames to {args.out}")
    return 0


def _resolve_out(cfg: PipelineConfig, out_flag) -> Path:
    out = out_flag if out_flag is not None else cfg.output_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set output_dir")
    return Path(out)


def _run(cfg: PipelineConfig, out: Path, cubes, workers: int = 1):
    """``iter_pipeline`` over ``cubes``, yielding each result once its write is
    submitted to the one writer thread. Frame i's write is submitted only once
    frame i-1's is done, so writes stay in frame order and a failed write ends
    the run. ``run_manifest.json`` is written after the last frame."""
    pending = None
    with ThreadPoolExecutor(max_workers=1) as writer:
        for result in iter_pipeline(cfg, cubes, workers=workers):
            if pending is not None:
                pending.result()
            pending = writer.submit(write_frame_outputs, out, result)
            yield result
        if pending is not None:
            pending.result()
    write_run_manifest(out, cfg)


def _cmd_process(args) -> int:
    """Stream the capture: at most ``--workers`` frames are decoded and not
    yet processed at a time."""
    _check_flags((args.workers >= 1, "--workers", ">= 1", args.workers))
    cfg = load_pipeline_config(args.config)
    file_cfg, cubes = read_capture_file(args.infile)
    if file_cfg != cfg.radar:
        raise ConfigError("capture file radar config does not match the pipeline config")
    out = _resolve_out(cfg, args.out)
    n_frames = n_points = 0
    for result in _run(cfg, out, cubes, workers=args.workers):
        n_frames += 1
        n_points += len(result.point_cloud)
    print(f"processed {n_frames} frames, {n_points} points -> {out}")
    return 0


def _cmd_listen(args) -> int:
    timeout = args.idle_timeout_s
    _check_flags(
        (timeout is None or 0 <= timeout <= threading.TIMEOUT_MAX, "--idle-timeout-s",
         f"in [0, {threading.TIMEOUT_MAX:.0f}]", timeout),
        (args.frames is None or args.frames >= 1, "--frames", ">= 1", args.frames),
    )
    cfg = load_pipeline_config(args.config)
    out = _resolve_out(cfg, args.out)
    reports = {}

    def cubes(stream):
        for cube, report in stream:
            reports[cube.frame_index] = report
            yield cube

    listener = CaptureListener(args.port, cfg.radar, window=args.window)
    try:
        # While it waits for a frame, the main thread range-processes the
        # frame's final rows, which process_frame then does not redo.
        stream = listener.frames(args.frames, timeout, on_rows=functools.partial(range_ahead, cfg))
        for result in _run(cfg, out, cubes(stream)):
            i = result.frame_index
            print(f"frame {i}: {len(result.point_cloud)} points, "
                  f"{reports[i].packets_dropped} packets dropped")
    finally:
        listener.stop()
    write_drop_reports(out, list(reports.items()))
    print(f"captured {len(reports)} frames -> {out}")
    print(f"{listener.frames_dropped_backpressure} frames dropped for backpressure")
    return 0


def _parse_dest(dest: str) -> tuple[str, int]:
    """``host:port`` (host defaults to 127.0.0.1) with a port in 1-65535."""
    host, _, port = dest.rpartition(":")
    if not (port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
        raise ConfigError(f"--dest must be host:port with a port in 1-65535, got {dest!r}")
    return host or "127.0.0.1", int(port)


def _check_flags(*checks) -> None:
    """Raise ConfigError for the first (ok, flag, allowed, value) that is not ok."""
    for ok, flag, allowed, value in checks:
        if not ok:
            raise ConfigError(f"{flag} must be {allowed}, got {value!r}")


def _cmd_replay(args) -> int:
    dest = _parse_dest(args.dest)
    _check_flags(
        (args.seed >= 0, "--seed", ">= 0", args.seed),
        (0 <= args.loss <= 1, "--loss", "in [0, 1]", args.loss),
        (args.reorder >= 0, "--reorder", ">= 0", args.reorder),
    )
    _, cubes = read_capture_file(args.infile)
    packets = packetize(cubes)
    rng = np.random.default_rng(args.seed)
    if args.reorder > 0:
        keys = np.arange(len(packets)) + rng.uniform(0.0, args.reorder, len(packets))
        packets = [packets[i] for i in np.argsort(keys, kind="stable")]
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 23)
    sent = dropped = 0
    try:
        for i, pkt in enumerate(packets):
            if args.loss > 0 and rng.random() < args.loss:
                dropped += 1
                continue
            sock.sendto(pkt.encode(), dest)
            sent += 1
            if i % 64 == 63:
                time.sleep(0.0005)  # keep loopback receive buffers ahead
    finally:
        sock.close()
    print(f"replayed {sent} packets ({dropped} dropped) to {args.dest}")
    return 0


def _cmd_bench(args) -> int:
    _check_flags((args.workers >= 1, "--workers", ">= 1", args.workers))
    cfg = load_pipeline_config(args.config)
    dp_target = PointTarget(range_m=10.0, radial_velocity_m_s=0.0, amplitude=1000.0)
    noise = NoiseSpec(noise_power=100.0, seed=cfg.seed)
    # Wire pairs, as `process` and `listen` get frames; copied out of the
    # stream's one buffer.
    cubes = [
        DataCube(cube.iq.copy(), cube.frame_index, cfg.radar)
        for cube in stream_capture(
            cfg.radar, [(i, [dp_target]) for i in range(args.frames)], noise, args.frames
        )
    ]
    start = time.perf_counter()
    results = run_pipeline(cfg, cubes, workers=args.workers)
    total_ms = (time.perf_counter() - start) / len(cubes) * 1e3
    timings = {
        name: sum(r.stage_ms[name] for r in results) / len(results)
        for name in results[0].stage_ms
    }
    timings["end_to_end"] = total_ms

    lines = [f"{'stage':<20} {'mean ms/frame':>14}"]
    for name, ms in timings.items():
        lines.append(f"{name:<20} {ms:>14.3f}")
    lines.append(f"throughput: {1e3 / total_ms:.1f} frames/s over {len(cubes)} frames")
    table = "\n".join(lines)
    print(table)
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.txt").write_text(table + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarkit", description="FMCW MIMO radar processing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene file into a capture file")
    p.add_argument("--config", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("process", help="process a capture file into point clouds")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_process)

    p = sub.add_parser("listen", help="process live UDP capture traffic")
    p.add_argument("--config", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--window", type=int, default=32)
    p.add_argument("--frames", type=int, default=None,
                   help="stop after this many frames (default: run until idle)")
    p.add_argument("--idle-timeout-s", type=float, default=None)
    p.set_defaults(fn=_cmd_listen)

    p = sub.add_parser("replay", help="transmit a capture file as UDP packets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dest", required=True, help="addr:port")
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--reorder", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("bench", help="per-stage timing on synthetic frames")
    p.add_argument("--config", required=True)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RadarError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
