"""End-to-end processing runs: data cubes in, point clouds and maps out.

Stage order is fixed: range FFT -> doppler FFT -> power map -> optional dB-map
log-Gabor -> 2-d CFAR -> peak grouping -> angle estimation -> point cloud.
Angle estimation gathers the detections' snapshots from the uncompensated
range-Doppler cube, applying the TDM doppler compensation as it gathers, and
estimates all detections of a frame in one batch against the config's
``AoaPlan``, which is built on first use and shared by every frame.
``process_frame`` is the only implementation of the chain: it records each
stage's wall time and reports any stage failure as ``PipelineError``.
Everything is deterministic given the input frames, so runs reproduce
byte-identically regardless of worker count.

The range FFT, Doppler FFT and power map run in buffers of the calling
thread: a complex cube the size of one frame's samples (4 MiB for a 2 TX,
4 RX, 128-chirp, 256-sample frame) and two float64 (Doppler, range) maps
(256 KiB each). The cube is antenna-major, (virtual_rx, slow_time, range):
each virtual antenna's (slow, range) plane is one compact block (512 KiB on
C0), where the chirp-major (chirp, rx, range) order put a Doppler column's
elements 8 x 256 elements apart. The frame's (I, Q) pairs, int16 from a
capture, are cast into the cube by one strided copy of their (slow, tx, rx,
sample) view, then windowed and FFT'd along range and along Doppler in
place, each step one call over the whole cube. The Doppler rows stay in FFT
order (row b mod N_c holds bin b); angle estimation reads them through the
(Doppler, virtual_rx, range) view of the cube. The power map is accumulated
antenna by antenna from the planes into one map and copied to the centered
order that CFAR and the outputs see into the other; CFAR runs in its own
per-thread buffers. The buffers are allocated on a thread's first frame,
reused by its later frames of the same shape and freed with the thread;
``iter_pipeline`` keeps one pool of threads for a whole run. Windows are
read-only arrays built once per kind and length. After its first frame, a
thread allocates nothing map-sized but the dB map of the ``FrameResult``, a
new array on every frame since the writer encodes it while the next frame
runs. Nothing in a ``FrameResult`` refers to the buffers.

A frame still arriving can be range-processed ahead: ``range_ahead`` runs
the range stage (cast, window, FFT, by the kernel ``process_frame`` uses)
on the whole slow-time rows (``num_tx`` chirp rows each) of a frame's cube
that are final, into the thread's cube buffer. ``process_frame`` of that
cube, on the same thread, then runs the range stage only on the rows after
them, and its ``range_fft`` time counts only those. The rows done are tied
to the cube object they were read from, never to a frame index or to the
bytes, and are used by the next frame processed or not at all. ``listen``
calls ``range_ahead`` while it waits for a frame; ``process`` does not, so
its frames run the whole chain.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import platform
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .aoa import MAX_ANGLE_BINS, AoaMethod, AoaPlan, aoa_plan, estimate_angles
from .capture import DropReport
from .core import (
    ConfigError,
    DataCube,
    RadarConfig,
    RadarError,
    decode_jsonable,
    encode_jsonable,
)
from .detect import (
    CfarParams,
    PointCloud,
    cfar_2d,
    group_peaks,
    log_gabor_filter,
    to_point_cloud,
    write_point_cloud_csv,
)
from .rangedoppler import (
    Accumulation,
    WindowKind,
    _accumulate,
    _center_rows,
    _range_rows,
    _shared_window,
    to_db,
    write_power_map_csv,
    write_power_map_pgm,
)


class PipelineError(RadarError):
    """A stage failed; carries the frame index it failed on."""

    def __init__(self, frame_index: int, message: str):
        super().__init__(f"frame {frame_index}: {message}")
        self.frame_index = frame_index


@dataclass(frozen=True)
class LogGaborParams:
    """``log_gabor_filter`` parameters (on the dB map), checked whether or not it is enabled."""

    enabled: bool = False
    f0_cycles: float = 0.1
    sigma_ratio: float = 0.55

    def __post_init__(self):
        if not 0.0 < self.f0_cycles < 0.5:
            raise ConfigError(f"f0_cycles must be in (0, 0.5), got {self.f0_cycles!r}")
        if not 0.0 < self.sigma_ratio < 1.0:
            raise ConfigError(f"sigma_ratio must be in (0, 1), got {self.sigma_ratio!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of a reproducible run; ``doppler_cfar`` is circular, as Doppler wraps."""

    radar: RadarConfig
    range_window: WindowKind = WindowKind.HANN
    doppler_window: WindowKind = WindowKind.HANN
    range_cfar: CfarParams = CfarParams()
    doppler_cfar: CfarParams = CfarParams(circular=True)
    aoa_method: AoaMethod = AoaMethod.FFT
    aoa_grid_step_deg: float = 0.1
    aoa_fft_bins: int = 256
    music_n_sources: Optional[int] = None
    capon_loading: float = 1e-3
    max_angles_per_detection: int = 1
    log_gabor: LogGaborParams = LogGaborParams()
    accumulation: Accumulation = Accumulation.NONCOHERENT_SUM
    connectivity: int = 8
    seed: int = 0
    output_dir: Optional[str] = None

    def __post_init__(self):
        # Values that would otherwise fail on frame 0; per-method ones if selected.
        radar = self.radar
        n_virtual = radar.num_tx * radar.num_rx
        method, n_sources = self.aoa_method, self.music_n_sources
        min_step = 180.0 / (MAX_ANGLE_BINS + 1)  # at most MAX_ANGLE_BINS grid angles
        for ok, name, allowed in [
            (_window_fits(self.range_cfar, radar.samples_per_chirp), "range_cfar",
             f"a window with 2*(guard_cells+train_cells) < samples_per_chirp "
             f"({radar.samples_per_chirp})"),
            (_window_fits(self.doppler_cfar, radar.chirps_per_frame_per_tx), "doppler_cfar",
             f"a window with 2*(guard_cells+train_cells) < chirps_per_frame_per_tx "
             f"({radar.chirps_per_frame_per_tx})"),
            # On the plan the frames will use; its spacing is None below 2 elements.
            (method is not AoaMethod.FFT or self.aoa_plan.spacing is not None,
             "aoa_method", "bartlett, capon or music unless the virtual array is "
             "uniformly spaced with >= 2 elements (fft)"),
            (method is not AoaMethod.MUSIC or n_virtual >= 2,
             "aoa_method", "bartlett or capon on a 1-element virtual array"),
            (self.connectivity in (4, 8), "connectivity", "4 or 8"),
            (self.max_angles_per_detection >= 1, "max_angles_per_detection", ">= 1"),
            (0 < self.aoa_grid_step_deg < 90, "aoa_grid_step_deg", "in (0, 90)"),
            (method is AoaMethod.FFT or self.aoa_grid_step_deg >= min_step,
             "aoa_grid_step_deg",
             f">= 180/{MAX_ANGLE_BINS + 1} ({MAX_ANGLE_BINS} grid angles) under {method.value}"),
            (method is not AoaMethod.FFT or n_virtual <= self.aoa_fft_bins <= MAX_ANGLE_BINS,
             "aoa_fft_bins", f"in [{n_virtual} (virtual rx), {MAX_ANGLE_BINS}] under fft"),
            (method is not AoaMethod.MUSIC or n_sources is None
             or 1 <= n_sources < n_virtual,
             "music_n_sources", f"null or in [1, {n_virtual - 1}] under music"),
            (method is not AoaMethod.CAPON or self.capon_loading >= 0,
             "capon_loading", ">= 0 under capon"),
        ]:
            if not ok:
                raise ConfigError(f"{name} must be {allowed}, got {getattr(self, name)!r}")

    @functools.cached_property
    def aoa_plan(self) -> AoaPlan:
        """Frame-invariant angle-estimation arrays, built on first use."""
        grid_step = None if self.aoa_method is AoaMethod.FFT else self.aoa_grid_step_deg
        return aoa_plan(self.radar, grid_step)

    def to_jsonable(self) -> dict:
        return encode_jsonable(self)

    def config_sha256(self) -> str:
        blob = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _window_fits(params: CfarParams, n: int) -> bool:
    return 2 * (params.guard_cells + params.train_cells) < n


def pipeline_config_from_dict(d: dict) -> PipelineConfig:
    """Build a PipelineConfig from parsed JSON; see ``core.decode_jsonable``."""
    return decode_jsonable(PipelineConfig, d)


def load_json(path):
    """Parse a UTF-8 JSON file. JSON that Python cannot hold (an integer of
    over 4300 digits, nesting deeper than the recursion limit) is a
    ``ConfigError``; malformed JSON and bytes that are not UTF-8 keep their
    own errors."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"cannot read the JSON in {path}: {e}") from e


def load_pipeline_config(path) -> PipelineConfig:
    return pipeline_config_from_dict(load_json(path))


@dataclass(frozen=True)
class FrameResult:
    """Per-frame pipeline output.

    ``stage_ms`` maps each stage of ``process_frame``, in run order, to its
    wall time in milliseconds.
    """

    frame_index: int
    point_cloud: PointCloud
    power_map_db: np.ndarray = field(repr=False)
    stage_ms: dict[str, float] = field(default_factory=dict, repr=False, compare=False)


_thread = threading.local()


def _workspace(cube: DataCube, num_tx: int):
    """This thread's work buffers for ``cube``: an antenna-major complex128
    (virtual_rx, slow_time, range) cube and two float64 (Doppler, range)
    maps; replaced only when a frame of another shape arrives, which discards
    any rows done ahead."""
    n_chirps, n_rx, n_range = cube.shape
    shape = (num_tx * n_rx, n_chirps // num_tx, n_range)
    buffers = getattr(_thread, "workspace", None)
    if buffers is None or buffers[0].shape != shape:
        buffers = (np.empty(shape, np.complex128), np.empty(shape[1:]), np.empty(shape[1:]))
        _thread.workspace = buffers
        _thread.ahead = None
    return buffers


def _range_stage(cfg: PipelineConfig, cube: DataCube, buf: np.ndarray,
                 start: int, stop: int) -> None:
    """The range stage of chirp rows ``start:stop`` of ``cube``, both
    multiples of ``num_tx`` (whole slow-time rows), into their slow rows of
    every antenna plane of ``buf``: one strided cast of the (slow, tx, rx,
    sample) pairs, transposed to (virtual_rx, slow, sample), then the range
    window and FFT."""
    m = cfg.radar.num_tx
    iq = cube.iq[start:stop]
    n_slow, n_virtual = len(iq) // m, m * iq.shape[1]
    pairs = iq.reshape(n_slow, n_virtual, *iq.shape[2:]).transpose(1, 0, 2, 3)
    w = _shared_window(cfg.range_window, cfg.radar.samples_per_chirp)
    _range_rows(pairs, w, buf[:, start // m:stop // m])


def range_ahead(cfg: PipelineConfig, cube: DataCube, rows: int) -> None:
    """Range-process the first ``rows`` chirp rows of a frame still arriving.

    ``cube`` is the frame's cube, of which the first ``rows`` chirp rows are
    final and never change. The range FFT of its whole slow-time rows among
    them (``rows`` rounded down to a multiple of ``num_tx``) goes into this
    thread's cube buffer, as ``process_frame`` computes it; rows done by an
    earlier call for the same cube are not done again. ``process_frame`` of
    that cube, on this thread, then does only the rows after them. Rows done
    are kept for one cube at a time, which they hold by reference; the next
    frame that ``process_frame`` runs, or a call for another cube, discards
    them.
    """
    buf = _workspace(cube, cfg.radar.num_tx)[0]
    done = _rows_done(cube, cfg.range_window)
    rows -= rows % cfg.radar.num_tx
    if rows > done:
        _range_stage(cfg, cube, buf, done, rows)
        done = rows
    _thread.ahead = (cube, cfg.range_window, done)


def _rows_done(cube: DataCube, window_kind: WindowKind) -> int:
    """Chirp rows of ``cube`` that ``range_ahead`` left in this thread's cube
    buffer: those done for this very cube under the same window, else 0.
    Rows done ahead are used once. Call it after ``_workspace``."""
    ahead, _thread.ahead = _thread.ahead, None
    if ahead is None or ahead[0] is not cube or ahead[1] is not window_kind:
        return 0
    return ahead[2]


_STAGES = ("range_fft", "doppler_fft", "power_map", "cfar_2d", "group_peaks", "aoa",
           "point_cloud")


def process_frame(cfg: PipelineConfig, cube: DataCube) -> FrameResult:
    """Run the full stage chain on one frame, timing each stage.

    Any stage failure is raised as PipelineError carrying the frame index.
    """
    marks = [time.perf_counter()]
    try:
        # The antenna-major range cube becomes the range-Doppler cube in
        # place, Doppler in FFT order; only the power map is shifted to
        # centered order.
        buf, fft_order, centered = _workspace(cube, cfg.radar.num_tx)
        _range_stage(cfg, cube, buf, _rows_done(cube, cfg.range_window), cube.shape[0])
        marks.append(time.perf_counter())
        w = _shared_window(cfg.doppler_window, buf.shape[1])
        np.multiply(buf, w[:, np.newaxis], out=buf)
        np.fft.fft(buf, axis=1, out=buf)
        rd = buf.transpose(1, 0, 2)  # (Doppler, virtual_rx, range)
        marks.append(time.perf_counter())
        # The map is accumulated in FFT order; centered's rows first hold
        # one antenna's |z|^2, then the centered map.
        _accumulate(rd, cfg.accumulation, out=fft_order, work=centered)
        linear = _center_rows(fft_order, out=centered)
        map_db = to_db(linear)
        if cfg.log_gabor.enabled:
            map_db = log_gabor_filter(map_db, cfg.log_gabor.f0_cycles, cfg.log_gabor.sigma_ratio)
            linear = 10.0 ** (map_db / 10.0)
        marks.append(time.perf_counter())
        cells = cfar_2d(linear, cfg.range_cfar, cfg.doppler_cfar)
        marks.append(time.perf_counter())
        detections = group_peaks(cells, cfg.connectivity, doppler_bins=len(linear))
        marks.append(time.perf_counter())
        angle_lists = estimate_angles(
            cfg.aoa_plan,
            rd,
            [d.doppler_bin for d in detections],
            [d.range_bin for d in detections],
            cfg.aoa_method,
            fft_bins=cfg.aoa_fft_bins,
            music_n_sources=cfg.music_n_sources,
            capon_loading=cfg.capon_loading,
            max_peaks=cfg.max_angles_per_detection,
        )
        marks.append(time.perf_counter())
        cloud = to_point_cloud(detections, angle_lists, cfg.radar, cube.frame_index)
        marks.append(time.perf_counter())
    except Exception as e:
        raise PipelineError(cube.frame_index, str(e)) from e
    return FrameResult(
        frame_index=cube.frame_index,
        point_cloud=cloud,
        power_map_db=map_db,
        stage_ms={name: (end - start) * 1e3
                  for name, start, end in zip(_STAGES, marks, marks[1:])},
    )


def iter_pipeline(
    cfg: PipelineConfig, frames: Iterable[DataCube], workers: int = 1
) -> Iterator[FrameResult]:
    """``process_frame`` over frames, yielding results in input order.

    With ``workers`` > 1 one pool of that many threads serves every frame, so
    each thread keeps its work buffers for the whole run. At most ``workers``
    frames are taken from ``frames`` ahead of the result being yielded, and a
    frame is released once processed. Results are identical for any worker
    count.
    """
    frames = iter(frames)
    if workers <= 1:
        yield from map(functools.partial(process_frame, cfg), frames)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        submit = functools.partial(pool.submit, process_frame, cfg)
        pending = collections.deque(map(submit, itertools.islice(frames, workers)))
        while pending:
            yield pending.popleft().result()
            pending.extend(map(submit, itertools.islice(frames, 1)))


def run_pipeline(
    cfg: PipelineConfig, frames: Iterable[DataCube], workers: int = 1
) -> list[FrameResult]:
    """All of ``iter_pipeline``'s results as a list."""
    return list(iter_pipeline(cfg, frames, workers))


def write_frame_outputs(out_dir, result: FrameResult) -> None:
    """Emit frame_<i>_points.csv, frame_<i>_rd.csv and frame_<i>_rd.pgm."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    i = result.frame_index
    write_point_cloud_csv(result.point_cloud, out / f"frame_{i}_points.csv")
    write_power_map_csv(result.power_map_db, out / f"frame_{i}_rd.csv")
    write_power_map_pgm(result.power_map_db, out / f"frame_{i}_rd.pgm")


def _write_json_file(path: Path, value) -> None:
    """``value`` as indented, key-sorted JSON text and a newline; makes the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(value, f, indent=2, sort_keys=True)
        f.write("\n")


def write_drop_reports(out_dir, reports: Sequence[tuple[int, DropReport]]) -> None:
    """drops.json: per-frame loss accounting from (frame index, report) pairs."""
    _write_json_file(Path(out_dir) / "drops.json", [
        {"frame": frame_index, **dataclasses.asdict(report)}
        for frame_index, report in reports
    ])


def write_run_manifest(out_dir, cfg: PipelineConfig) -> None:
    """run_manifest.json: config hash, seed and versions for reproducibility."""
    _write_json_file(Path(out_dir) / "run_manifest.json", {
        "config_sha256": cfg.config_sha256(),
        "seed": cfg.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "radarkit": __version__,
        },
    })
