"""Outside-in tracing of radarkit: spans around the public functions of each module.

``install`` replaces each traced function at every module binding that holds
it (``radarkit.pipeline.range_processing`` as well as
``radarkit.rangedoppler.range_processing`` and the package re-export), and
patches methods on their class. Nothing under ``src/`` changes.

Spans stay in memory, one list and one parent stack per thread (the live
listener has its own thread). A span's id is the frame index: taken from the
call's arguments where it has one, otherwise inherited from the enclosing
span; for packets it is ``byte_offset // frame_bytes``. ``dump`` writes the
spans out once the command has finished.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter

from workloads import FRAME_BYTES

MODULES = (
    "radarkit", "radarkit.core", "radarkit.simulate", "radarkit.capture",
    "radarkit.rangedoppler", "radarkit.aoa", "radarkit.detect",
    "radarkit.pipeline", "radarkit.cli",
)


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _ThreadLog:
    def __init__(self, name: str):
        self.name = name
        self.spans: list[list] = []  # [name, frame id, start, end, parent index]
        self.stack: list[int] = []
        self.marks: list[tuple[str, int | None, float]] = []
        self.counts: Counter = Counter()

    def current_id(self):
        return self.spans[self.stack[-1]][1] if self.stack else None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[_ThreadLog] = []

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def wrap(self, name, fn, frame_id=None, result_id=None, count=None):
        """Wrap ``fn`` in a span ``name``.

        ``frame_id(args, kwargs)`` gives the span id from the arguments,
        ``result_id(result)`` from the return value; without either the span
        inherits its parent's id. ``count(result)`` adds to the counter
        ``name + "_out"`` under the span's id.
        """
        def traced(*args, **kwargs):
            log = self.log()
            fid = frame_id(args, kwargs) if frame_id else log.current_id()
            index = len(log.spans)
            span = [name, fid, now(), 0.0, log.stack[-1] if log.stack else -1]
            log.spans.append(span)
            log.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                log.stack.pop()
            if result_id is not None:
                span[1] = result_id(result)
            if count is not None:
                log.counts[(name + "_out", span[1])] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        """Count calls of ``fn`` under the enclosing span's id, without a span."""
        def counted(*args, **kwargs):
            log = self.log()
            log.counts[(name, log.current_id())] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def mark(self, name, fid):
        self.log().marks.append((name, fid, now()))

    def dump(self, path):
        threads = []
        for log in self.logs:
            threads.append({
                "thread": log.name,
                "spans": log.spans,
                "marks": log.marks,
                "counts": [[k[0], k[1], v] for k, v in log.counts.items()],
            })
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"threads": threads}, f, separators=(",", ":"))


def _rebind(orig, replacement) -> None:
    """Point every radarkit module binding of ``orig`` at ``replacement``."""
    n = 0
    for mod_name in MODULES:
        mod = sys.modules[mod_name]
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                n += 1
    if n == 0:
        raise RuntimeError(f"no module binding of {orig!r}")


def _arg(pos, key):
    """frame_id getter: the frame index passed at ``pos`` or as ``key``."""
    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(key, 0)
    return get


def _attr_of_arg(pos, attr="frame_index"):
    return lambda args, kwargs: getattr(args[pos], attr)


def _packet_frame(pos):
    return lambda args, kwargs: args[pos].byte_offset // FRAME_BYTES


# (module, function, span name, frame_id getter, count of the result)
FUNCTIONS = [
    ("simulate", "synthesize_frame", "simulate.synthesize_frame", _arg(3, "frame_index"), None),
    ("capture", "write_capture_file", "capture.write_capture_file", None, None),
    ("capture", "read_capture_file", "capture.read_capture_file", None, None),
    ("capture", "deinterleave", "capture.deinterleave", _arg(2, "frame_index"), None),
    ("rangedoppler", "range_processing", "rangedoppler.range_processing", None, None),
    ("rangedoppler", "doppler_processing", "rangedoppler.doppler_processing", None, None),
    ("rangedoppler", "accumulate_power", "rangedoppler.accumulate_power", None, None),
    ("rangedoppler", "to_db", "rangedoppler.to_db", None, None),
    ("rangedoppler", "write_power_map_csv", "rangedoppler.write_power_map_csv", None, None),
    ("rangedoppler", "write_power_map_pgm", "rangedoppler.write_power_map_pgm", None, None),
    ("detect", "cfar_2d", "detect.cfar_2d", None, len),
    ("detect", "group_peaks", "detect.group_peaks", None, len),
    ("detect", "log_gabor_filter", "detect.log_gabor_filter", None, None),
    ("detect", "to_point_cloud", "detect.to_point_cloud", None, None),
    ("detect", "write_point_cloud_csv", "detect.write_point_cloud_csv", None, None),
    ("aoa", "virtual_array", "aoa.virtual_array", None, None),
    ("aoa", "default_angle_grid", "aoa.default_angle_grid", None, None),
    ("aoa", "doppler_compensate", "aoa.doppler_compensate", None, None),
    ("aoa", "covariance", "aoa.covariance", None, None),
    ("aoa", "aoa_fft", "aoa.aoa_fft", None, None),
    ("aoa", "bartlett", "aoa.bartlett", None, None),
    ("aoa", "capon", "aoa.capon", None, None),
    ("aoa", "music", "aoa.music", None, None),
    ("aoa", "estimate_source_count", "aoa.estimate_source_count", None, None),
    ("aoa", "sorted_eig", "aoa.sorted_eig", None, None),
    ("aoa", "peak_angles", "aoa.peak_angles", None, None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("pipeline", "process_frame", "pipeline.process_frame", _attr_of_arg(1), None),
    ("pipeline", "write_frame_outputs", "pipeline.write_frame_outputs", _attr_of_arg(1), None),
    ("pipeline", "write_drop_reports", "pipeline.write_drop_reports", None, None),
    ("pipeline", "write_run_manifest", "pipeline.write_run_manifest", None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of an imported radarkit."""
    import radarkit.capture as capture
    import radarkit.core as core

    for module, attr, name, frame_id, count in FUNCTIONS:
        orig = getattr(sys.modules["radarkit." + module], attr)
        _rebind(orig, tracer.wrap(name, orig, frame_id=frame_id, count=count))
    validate = core.validate_config
    _rebind(validate, tracer.counted("core.validate_config", validate))

    post_init = core.DataCube.__post_init__
    core.DataCube.__post_init__ = tracer.wrap(
        "core.datacube_init", post_init, frame_id=_attr_of_arg(0))

    decode = capture.CapturePacket.__dict__["decode"].__func__
    capture.CapturePacket.decode = classmethod(tracer.wrap(
        "capture.decode", decode, result_id=lambda p: p.byte_offset // FRAME_BYTES))
    feed = capture.PacketReassembler.feed
    capture.PacketReassembler.feed = tracer.wrap(
        "capture.feed", feed, frame_id=_packet_frame(1))

    frames = capture.CaptureListener.frames

    def traced_frames(self, *args, **kwargs):
        # Each wait for the next frame is a span of the consumer thread; the
        # mark records when the consumer received the frame.
        it = frames(self, *args, **kwargs)
        wait = tracer.wrap("capture.frame_wait", lambda: next(it, None))
        while True:
            item = wait()
            if item is None:
                return
            tracer.mark("capture.frame_received", item[0].frame_index)
            yield item

    capture.CaptureListener.frames = traced_frames

    stop = capture.CaptureListener.stop

    def traced_stop(self):
        stop(self)
        tracer.log().counts[("capture.backpressure_frames", None)] += (
            self.frames_dropped_backpressure)

    capture.CaptureListener.stop = traced_stop
