"""Per-layer metrics from the span dumps of a traced run.

Span durations are summed per frame id within one command invocation and the
metric is the median over frames, unless its unit says per run or per
packet. Self time is a span's duration minus the durations of its child
spans; children run on the span's own thread, one after another, so that
difference is the time no child covers.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict

# (metric, unit, better); the order is the print order.
PER_LAYER = [
    ("core.datacube_init_ms", "ms", "lower"),
    ("core.validate_config_calls", "count/frame", "lower"),
    ("simulate.synthesize_frame_ms", "ms", "lower"),
    ("capture.write_capture_file_ms", "ms/frame", "lower"),
    ("capture.read_capture_file_ms", "ms/frame", "lower"),
    ("capture.deinterleave_ms", "ms", "lower"),
    ("capture.decode_us", "us/packet", "lower"),
    ("capture.feed_us", "us/packet", "lower"),
    ("capture.queue_wait_ms", "ms", "lower"),
    ("capture.packets_received", "count", "higher"),
    ("capture.packets_dropped", "count", "lower"),
    ("capture.bytes_zero_filled", "bytes", "lower"),
    ("capture.reordered", "count", "lower"),
    ("capture.backpressure_frames", "count", "lower"),
    ("capture.packet_useful_ratio", "ratio", "higher"),
    ("rangedoppler.range_processing_ms", "ms", "lower"),
    ("rangedoppler.doppler_processing_ms", "ms", "lower"),
    ("rangedoppler.accumulate_power_ms", "ms", "lower"),
    ("rangedoppler.to_db_ms", "ms", "lower"),
    ("rangedoppler.write_power_map_csv_ms", "ms", "lower"),
    ("rangedoppler.write_power_map_pgm_ms", "ms", "lower"),
    ("detect.cfar_2d_ms", "ms", "lower"),
    ("detect.group_peaks_ms", "ms", "lower"),
    ("detect.to_point_cloud_ms", "ms", "lower"),
    ("detect.write_point_cloud_csv_ms", "ms", "lower"),
    ("detect.cfar_cells", "count", "lower"),
    ("detect.peaks", "count", "higher"),
    ("detect.peaks_per_cell", "ratio", "higher"),
    ("aoa.doppler_compensate_ms", "ms", "lower"),
    ("aoa.covariance_ms", "ms", "lower"),
    ("aoa.estimator_ms", "ms", "lower"),
    ("aoa.source_count_ms", "ms", "lower"),
    ("aoa.peak_angles_ms", "ms", "lower"),
    ("aoa.ms_per_detection", "ms", "lower"),
    ("aoa.sorted_eig_per_detection", "count", "lower"),
    ("aoa.virtual_array_calls", "count/frame", "lower"),
    ("aoa.default_angle_grid_calls", "count/frame", "lower"),
    ("pipeline.process_frame_ms", "ms", "lower"),
    ("pipeline.process_frame_self_ms", "ms", "lower"),
    ("pipeline.write_frame_outputs_ms", "ms", "lower"),
    ("cli.main_self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]

# Printed in the table but left out of the JSON result and BENCHMARK.json:
# each reads 0 on the workloads that never do that work (packets offline, a
# capture file on live-udp, covariance under FFT AoA), and a time that reads
# 0 on every run is no measurement.
TABLE_ONLY = {
    "capture.read_capture_file_ms", "capture.decode_us", "capture.feed_us",
    "capture.queue_wait_ms", "aoa.covariance_ms", "aoa.source_count_ms",
}

ESTIMATORS = ("aoa.aoa_fft", "aoa.bartlett", "aoa.capon", "aoa.music")
AOA_PER_DETECTION = ("aoa.covariance", *ESTIMATORS, "aoa.estimate_source_count", "aoa.peak_angles")


class Invocation:
    """The spans of one command run, summarised per name and frame."""

    def __init__(self, dump: dict):
        self.per_frame: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.self_per_frame: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.total: Counter = Counter()
        self.self_total: Counter = Counter()
        self.calls: Counter = Counter()
        self.durations: dict[str, list] = defaultdict(list)
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.marks: dict[str, dict] = defaultdict(dict)
        # When each frame's cube left deinterleave on the listener thread.
        self.listener_cube_ready: dict = {}
        self.children: dict[str, Counter] = defaultdict(Counter)
        for thread in dump["threads"]:
            spans = thread["spans"]
            child_time = [0.0] * len(spans)
            for name, fid, t0, t1, parent in spans:
                if parent >= 0:
                    child_time[parent] += t1 - t0
            for (name, fid, t0, t1, parent), covered in zip(spans, child_time):
                dur = t1 - t0
                self.total[name] += dur
                self.self_total[name] += dur - covered
                self.calls[name] += 1
                self.durations[name].append(dur)
                if fid is not None:
                    self.per_frame[name][fid] += dur
                    self.self_per_frame[name][fid] += dur - covered
                    if name == "capture.deinterleave" and thread["thread"] != "MainThread":
                        self.listener_cube_ready[fid] = t1
                if parent >= 0 and spans[parent][0] == "pipeline.process_frame":
                    self.children["pipeline.process_frame"][name] += dur
            for name, fid, t in thread["marks"]:
                self.marks[name][fid] = t
            for name, fid, value in thread["counts"]:
                self.counts[name][fid] += value

    @property
    def frames(self) -> int:
        return self.calls["pipeline.process_frame"]


def load(path) -> Invocation:
    with open(path, encoding="utf-8") as f:
        return Invocation(json.load(f))


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _frame_sums(invs, names, selves=False) -> list[float]:
    """Per-(invocation, frame) sum of the spans ``names``."""
    out = []
    for inv in invs:
        table = inv.self_per_frame if selves else inv.per_frame
        fids = set().union(*(table[n].keys() for n in names if n in table))
        out.extend(sum(table[n].get(fid, 0.0) for n in names if n in table) for fid in fids)
    return out


def _ms(invs, *names, selves=False) -> float:
    return 1e3 * _median(_frame_sums(invs, names, selves))


def _per_run_frame(invs, name, frames_of) -> float:
    vals = [1e3 * inv.total[name] / frames_of(inv) for inv in invs if inv.calls[name] and frames_of(inv)]
    return _median(vals)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(sut: list[Invocation], sim: list[Invocation], drops: dict, overhead_ratio: float):
    """Every per-layer metric. ``sut`` are the traced process/listen runs,
    ``sim`` the traced simulate runs and ``drops`` the summed drops.json."""
    frames = sum(inv.frames for inv in sut)
    cells = sum(sum(inv.counts["detect.cfar_2d_out"].values()) for inv in sut)
    peaks = sum(sum(inv.counts["detect.group_peaks_out"].values()) for inv in sut)
    per_det = []
    for inv in sut:
        for fid, n in inv.counts["detect.group_peaks_out"].items():
            if n:
                t = sum(inv.per_frame[name].get(fid, 0.0) for name in AOA_PER_DETECTION)
                per_det.append(1e3 * t / n)
    queue_wait = []
    for inv in sut:
        for fid, received in inv.marks["capture.frame_received"].items():
            if fid in inv.listener_cube_ready:
                queue_wait.append(1e3 * (received - inv.listener_cube_ready[fid]))
    received, dropped = drops.get("packets_received", 0), drops.get("packets_dropped", 0)
    m = {
        "core.datacube_init_ms": _ms(sut + sim, "core.datacube_init"),
        "core.validate_config_calls": _ratio(
            sum(sum(inv.counts["core.validate_config"].values()) for inv in sut), frames),
        "simulate.synthesize_frame_ms": _ms(sim, "simulate.synthesize_frame"),
        "capture.write_capture_file_ms": _per_run_frame(
            sim, "capture.write_capture_file", lambda inv: inv.calls["simulate.synthesize_frame"]),
        "capture.read_capture_file_ms": _per_run_frame(
            sut, "capture.read_capture_file", lambda inv: inv.frames),
        "capture.deinterleave_ms": _ms(sut, "capture.deinterleave"),
        "capture.decode_us": 1e6 * _median(d for inv in sut for d in inv.durations["capture.decode"]),
        "capture.feed_us": 1e6 * _median(d for inv in sut for d in inv.durations["capture.feed"]),
        "capture.queue_wait_ms": _median(queue_wait),
        "capture.packets_received": received,
        "capture.packets_dropped": dropped,
        "capture.bytes_zero_filled": drops.get("bytes_zero_filled", 0),
        "capture.reordered": drops.get("reordered_count", 0),
        "capture.backpressure_frames": sum(
            inv.counts["capture.backpressure_frames"].get(None, 0) for inv in sut),
        "capture.packet_useful_ratio": _ratio(received, received + dropped),
        "rangedoppler.range_processing_ms": _ms(sut, "rangedoppler.range_processing"),
        "rangedoppler.doppler_processing_ms": _ms(sut, "rangedoppler.doppler_processing"),
        "rangedoppler.accumulate_power_ms": _ms(sut, "rangedoppler.accumulate_power"),
        "rangedoppler.to_db_ms": _ms(sut, "rangedoppler.to_db"),
        "rangedoppler.write_power_map_csv_ms": _ms(sut, "rangedoppler.write_power_map_csv"),
        "rangedoppler.write_power_map_pgm_ms": _ms(sut, "rangedoppler.write_power_map_pgm"),
        "detect.cfar_2d_ms": _ms(sut, "detect.cfar_2d"),
        "detect.group_peaks_ms": _ms(sut, "detect.group_peaks"),
        "detect.to_point_cloud_ms": _ms(sut, "detect.to_point_cloud"),
        "detect.write_point_cloud_csv_ms": _ms(sut, "detect.write_point_cloud_csv"),
        "detect.cfar_cells": _median(v for inv in sut for v in inv.counts["detect.cfar_2d_out"].values()),
        "detect.peaks": _median(v for inv in sut for v in inv.counts["detect.group_peaks_out"].values()),
        "detect.peaks_per_cell": _ratio(peaks, cells),
        "aoa.doppler_compensate_ms": _ms(sut, "aoa.doppler_compensate"),
        "aoa.covariance_ms": _ms(sut, "aoa.covariance"),
        "aoa.estimator_ms": _ms(sut, *ESTIMATORS),
        "aoa.source_count_ms": _ms(sut, "aoa.estimate_source_count"),
        "aoa.peak_angles_ms": _ms(sut, "aoa.peak_angles"),
        "aoa.ms_per_detection": _median(per_det),
        "aoa.sorted_eig_per_detection": _ratio(sum(inv.calls["aoa.sorted_eig"] for inv in sut), peaks),
        "aoa.virtual_array_calls": _ratio(sum(inv.calls["aoa.virtual_array"] for inv in sut), frames),
        "aoa.default_angle_grid_calls": _ratio(
            sum(inv.calls["aoa.default_angle_grid"] for inv in sut), frames),
        "pipeline.process_frame_ms": _ms(sut, "pipeline.process_frame"),
        "pipeline.process_frame_self_ms": _ms(sut, "pipeline.process_frame", selves=True),
        "pipeline.write_frame_outputs_ms": _ms(sut, "pipeline.write_frame_outputs"),
        "cli.main_self_ms": 1e3 * _median(inv.self_total["cli.main"] for inv in sut),
        "trace.overhead_ratio": overhead_ratio,
    }
    return m


def process_frame_breakdown(sut: list[Invocation]) -> list[tuple[str, float]]:
    """Mean ms/frame of each direct child of process_frame, its self time and total."""
    frames = sum(inv.frames for inv in sut)
    if not frames:
        return []
    children = Counter()
    for inv in sut:
        children.update(inv.children["pipeline.process_frame"])
    rows = [(name, 1e3 * t / frames) for name, t in children.most_common()]
    rows.append(("(self)", 1e3 * sum(inv.self_total["pipeline.process_frame"] for inv in sut) / frames))
    rows.append(("= pipeline.process_frame", 1e3 * sum(inv.total["pipeline.process_frame"] for inv in sut) / frames))
    return rows
