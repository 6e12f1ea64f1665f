"""End-to-end processing runs: data cubes in, point clouds and maps out.

Stage order is fixed: range FFT -> doppler FFT -> optional log-Gabor ->
power map -> 2-d CFAR -> peak grouping -> TDM doppler compensation ->
per-detection angle estimation -> point cloud. Everything is deterministic
given the input frames, so runs reproduce byte-identically regardless of
worker count.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .aoa import (
    VirtualArray,
    covariance,
    default_angle_grid,
    doppler_compensate,
    estimate_source_count,
    aoa_fft,
    bartlett,
    capon,
    music,
    peak_angles,
    virtual_array,
)
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
    RangeDopplerCube,
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


class AoaMethod(enum.Enum):
    FFT = "fft"
    BARTLETT = "bartlett"
    CAPON = "capon"
    MUSIC = "music"


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
        for ok, name, allowed in [
            (self.connectivity in (4, 8), "connectivity", "4 or 8"),
            (self.max_angles_per_detection >= 1, "max_angles_per_detection", ">= 1"),
            (0 < self.aoa_grid_step_deg < 90, "aoa_grid_step_deg", "in (0, 90)"),
            (method is not AoaMethod.FFT or self.aoa_fft_bins >= n_virtual,
             "aoa_fft_bins", f">= the {n_virtual} virtual rx under fft"),
            (method is not AoaMethod.MUSIC or n_sources is None
             or 1 <= n_sources < n_virtual,
             "music_n_sources", f"null or in [1, {n_virtual - 1}] under music"),
            (method is not AoaMethod.CAPON or self.capon_loading >= 0,
             "capon_loading", ">= 0 under capon"),
        ]:
            if not ok:
                raise ConfigError(f"{name} must be {allowed}, got {getattr(self, name)!r}")

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
    """Per-frame pipeline output."""

    frame_index: int
    point_cloud: PointCloud
    power_map_db: np.ndarray = field(repr=False)
    drop_report: Optional[DropReport] = None


def _estimate_angles(
    cfg: PipelineConfig,
    compensated: RangeDopplerCube,
    array: VirtualArray,
    grid: np.ndarray,
    detections,
) -> list[list[tuple[float, float]]]:
    angle_lists = []
    n_doppler = compensated.num_doppler_bins
    for det in detections:
        row = det.doppler_bin + n_doppler // 2
        if cfg.aoa_method is AoaMethod.FFT:
            snapshot = compensated.data[row, :, det.range_bin]
            spectrum = aoa_fft(snapshot, array, cfg.aoa_fft_bins)
        else:
            snapshots = compensated.data[:, :, det.range_bin]
            loading = cfg.capon_loading if cfg.aoa_method is AoaMethod.CAPON else 0.0
            r = covariance(snapshots, loading=loading)
            if cfg.aoa_method is AoaMethod.BARTLETT:
                spectrum = bartlett(r, array, grid)
            elif cfg.aoa_method is AoaMethod.CAPON:
                spectrum = capon(r, array, grid)
            else:
                n_sources = cfg.music_n_sources
                if n_sources is None:
                    n_sources = min(max(estimate_source_count(r), 1), len(array) - 1)
                spectrum = music(r, array, n_sources, grid)
        angle_lists.append(peak_angles(spectrum, cfg.max_angles_per_detection))
    return angle_lists


def process_frame(cfg: PipelineConfig, cube: DataCube) -> FrameResult:
    """Run the full stage chain on one frame."""
    array = virtual_array(cfg.radar)
    grid = default_angle_grid(cfg.aoa_grid_step_deg)
    range_cube = range_processing(cube, cfg.range_window)
    rd = doppler_processing(range_cube, cfg.radar, cfg.doppler_window)
    linear = accumulate_power(rd, cfg.accumulation)
    if cfg.log_gabor.enabled:
        linear = log_gabor_filter(
            linear, cfg.log_gabor.f0_cycles, cfg.log_gabor.sigma_ratio
        )
    map_db = to_db(linear)
    detections = group_peaks(
        cfar_2d(linear, cfg.range_cfar, cfg.doppler_cfar), cfg.connectivity
    )
    compensated = doppler_compensate(rd)
    angle_lists = _estimate_angles(cfg, compensated, array, grid, detections)
    cloud = to_point_cloud(detections, angle_lists, cfg.radar, cube.frame_index)
    return FrameResult(
        frame_index=cube.frame_index, point_cloud=cloud, power_map_db=map_db
    )


def run_pipeline(
    cfg: PipelineConfig,
    frames: Sequence[DataCube],
    drop_reports: Optional[Sequence[Optional[DropReport]]] = None,
    workers: int = 1,
) -> list[FrameResult]:
    """Process frames in input order, optionally on a thread pool.

    Output order always matches input order and results are identical for
    any worker count. Stage failures are re-raised as PipelineError with the
    offending frame index attached.
    """
    frames = list(frames)
    if drop_reports is None:
        drop_reports = [None] * len(frames)
    if len(drop_reports) != len(frames):
        raise ValueError("drop_reports must match frames in length")

    def job(cube: DataCube) -> FrameResult:
        try:
            return process_frame(cfg, cube)
        except PipelineError:
            raise
        except Exception as e:
            raise PipelineError(cube.frame_index, str(e)) from e

    if workers > 1 and len(frames) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, frames))
    else:
        results = [job(cube) for cube in frames]
    return [
        dataclasses.replace(res, drop_report=report)
        for res, report in zip(results, drop_reports)
    ]


def write_frame_outputs(out_dir, result: FrameResult) -> None:
    """Emit frame_<i>_points.csv, frame_<i>_rd.csv and frame_<i>_rd.pgm."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    i = result.frame_index
    write_point_cloud_csv(result.point_cloud, out / f"frame_{i}_points.csv")
    write_power_map_csv(result.power_map_db, out / f"frame_{i}_rd.csv")
    write_power_map_pgm(result.power_map_db, out / f"frame_{i}_rd.pgm")


def write_drop_reports(out_dir, results: Sequence[FrameResult]) -> None:
    """drops.json: per-frame loss accounting for frames that have any."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = [
        {"frame": r.frame_index, **dataclasses.asdict(r.drop_report)}
        for r in results
        if r.drop_report is not None
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
