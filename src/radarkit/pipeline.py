"""End-to-end processing runs: data cubes in, point clouds and maps out.

Stage order is fixed: range FFT -> doppler FFT -> optional log-Gabor ->
power map -> 2-d CFAR -> peak grouping -> angle estimation -> point cloud.
Angle estimation gathers the detections' snapshots from the uncompensated
range-Doppler cube, applying the TDM doppler compensation as it gathers, and
estimates all detections of a frame in one batch against the config's
``AoaPlan``, which is built on first use and shared by every frame.
``process_frame`` is the only implementation of the chain: it records each
stage's wall time and reports any stage failure as ``PipelineError``.
Everything is deterministic given the input frames, so runs reproduce
byte-identically regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    validate_config,
)
from .detect import (
    CfarMode,
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
    accumulate_power,
    doppler_processing,
    range_processing,
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
    enabled: bool = False
    f0_cycles: float = 0.1
    sigma_ratio: float = 0.55


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of a reproducible processing run."""

    radar: RadarConfig
    range_window: WindowKind = WindowKind.HANN
    doppler_window: WindowKind = WindowKind.HANN
    range_cfar: CfarParams = CfarParams(mode=CfarMode.RANGE_AXIS)
    doppler_cfar: CfarParams = CfarParams(mode=CfarMode.DOPPLER_AXIS)
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
        validate_config(self.radar)
        n_virtual = self.radar.num_tx * self.radar.num_rx
        method, n_sources = self.aoa_method, self.music_n_sources
        min_step = 180.0 / (MAX_ANGLE_BINS + 1)  # at most MAX_ANGLE_BINS grid angles
        for ok, name, allowed in [
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


def pipeline_config_from_dict(d: dict) -> PipelineConfig:
    """Build a PipelineConfig from parsed JSON; see ``core.decode_jsonable``."""
    return decode_jsonable(PipelineConfig, d)


def load_pipeline_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return pipeline_config_from_dict(json.load(f))


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


_STAGES = ("range_fft", "doppler_fft", "power_map", "cfar_2d", "group_peaks", "aoa",
           "point_cloud")


def process_frame(cfg: PipelineConfig, cube: DataCube) -> FrameResult:
    """Run the full stage chain on one frame, timing each stage.

    Any stage failure is raised as PipelineError carrying the frame index.
    """
    marks = [time.perf_counter()]
    try:
        range_cube = range_processing(cube, cfg.range_window)
        marks.append(time.perf_counter())
        rd = doppler_processing(range_cube, cfg.radar, cfg.doppler_window)
        marks.append(time.perf_counter())
        linear = accumulate_power(rd, cfg.accumulation)
        if cfg.log_gabor.enabled:
            linear = log_gabor_filter(
                linear, cfg.log_gabor.f0_cycles, cfg.log_gabor.sigma_ratio
            )
        map_db = to_db(linear)
        marks.append(time.perf_counter())
        cells = cfar_2d(linear, cfg.range_cfar, cfg.doppler_cfar)
        marks.append(time.perf_counter())
        detections = group_peaks(cells, cfg.connectivity)
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


def run_pipeline(
    cfg: PipelineConfig, frames: Iterable[DataCube], workers: int = 1
) -> list[FrameResult]:
    """``process_frame`` over frames in input order, optionally on a thread pool.

    Results are identical for any worker count.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(functools.partial(process_frame, cfg), frames))
    return [process_frame(cfg, cube) for cube in frames]


def write_frame_outputs(out_dir, result: FrameResult) -> None:
    """Emit frame_<i>_points.csv, frame_<i>_rd.csv and frame_<i>_rd.pgm."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    i = result.frame_index
    write_point_cloud_csv(result.point_cloud, out / f"frame_{i}_points.csv")
    write_power_map_csv(result.power_map_db, out / f"frame_{i}_rd.csv")
    write_power_map_pgm(result.power_map_db, out / f"frame_{i}_rd.pgm")


def write_drop_reports(out_dir, reports: Sequence[tuple[int, DropReport]]) -> None:
    """drops.json: per-frame loss accounting from (frame index, report) pairs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = [
        {"frame": frame_index, **dataclasses.asdict(report)}
        for frame_index, report in reports
    ]
    with open(out / "drops.json", "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=2, sort_keys=True)
        f.write("\n")


def write_run_manifest(out_dir, cfg: PipelineConfig) -> None:
    """run_manifest.json: config hash, seed and versions for reproducibility."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_sha256": cfg.config_sha256(),
        "seed": cfg.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "radarkit": __version__,
        },
    }
    with open(out / "run_manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
