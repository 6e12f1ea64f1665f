"""CA-CFAR detection, log-Gabor noise filtering, peak grouping, point clouds.

The CFAR threshold multiplier assumes square-law (exponential) noise in the
power domain: with N training cells the scale factor alpha = N (pfa^(-1/N) - 1)
holds the false-alarm probability at pfa exactly for homogeneous noise. Edge
cells shrink to the training cells actually available and recompute alpha for
that count, so the rate stays calibrated at the profile ends too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import RadarConfig, RadarError, bin_to_range, bin_to_velocity


class WindowError(RadarError):
    """CFAR guard/training window does not fit the profile axis."""


class ParamError(RadarError):
    """Filter parameter outside its valid range."""


class CfarMode(enum.Enum):
    RANGE_AXIS = "range_axis"
    DOPPLER_AXIS = "doppler_axis"
    CROSS_2D = "cross_2d"


@dataclass(frozen=True)
class CfarParams:
    """CA-CFAR window shape and target false-alarm rate (cells per side)."""

    guard_cells: int = 2
    train_cells: int = 8
    pfa: float = 1e-4
    # Set per axis by the pipeline, so never a config key.
    mode: CfarMode = field(default=CfarMode.RANGE_AXIS, metadata={"json": False})
    circular: bool = False

    def __post_init__(self):
        if self.guard_cells < 0:
            raise ValueError(f"guard_cells must be >= 0, got {self.guard_cells}")
        if self.train_cells < 1:
            raise ValueError(f"train_cells must be >= 1, got {self.train_cells}")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must be in (0, 1), got {self.pfa}")


def cfar_alpha(pfa: float, n_train: int) -> float:
    """Threshold multiplier alpha = N (pfa^(-1/N) - 1) for N training cells."""
    return n_train * (pfa ** (-1.0 / n_train) - 1.0)


def _cfar_rows(rows: np.ndarray, params: CfarParams):
    """Vectorized CA-CFAR along the last axis of a 2-d array.

    Returns (mask, thresholds, noise_estimates), all shaped like ``rows``.
    """
    n = rows.shape[-1]
    g, t = params.guard_cells, params.train_cells
    if 2 * (g + t) >= n:
        raise WindowError(
            f"CFAR window 2*(guard+train)={2 * (g + t)} does not fit axis of {n}"
        )
    i = np.arange(n)
    if params.circular:
        pad = g + t
        padded = np.concatenate([rows[..., -pad:], rows, rows[..., :pad]], axis=-1)
        s = np.concatenate(
            [np.zeros(rows.shape[:-1] + (1,)), np.cumsum(padded, axis=-1)], axis=-1
        )
        left = s[..., i + t] - s[..., i]
        right = s[..., i + 2 * pad + 1] - s[..., i + pad + g + 1]
        counts = np.full(n, 2 * t)
    else:
        s = np.concatenate(
            [np.zeros(rows.shape[:-1] + (1,)), np.cumsum(rows, axis=-1)], axis=-1
        )
        la = np.clip(i - g - t, 0, n)
        lb = np.clip(i - g, 0, n)
        ra = np.clip(i + g + 1, 0, n)
        rb = np.clip(i + g + t + 1, 0, n)
        left = s[..., lb] - s[..., la]
        right = s[..., rb] - s[..., ra]
        counts = (lb - la) + (rb - ra)
    noise = (left + right) / counts
    alpha = counts * (params.pfa ** (-1.0 / counts) - 1.0)
    thresholds = alpha * noise
    return rows > thresholds, thresholds, noise


def ca_cfar_1d(profile: np.ndarray, params: CfarParams):
    """Cell-averaging CFAR over a linear-power profile.

    Returns (mask, thresholds): mask[i] is True iff profile[i] exceeds
    alpha * (mean of its training cells), guards excluded.
    """
    p = np.asarray(profile, dtype=np.float64)
    if p.ndim != 1:
        raise WindowError(f"expected a 1-d profile, got {p.ndim}-d")
    mask, thresholds, _ = _cfar_rows(p[np.newaxis, :], params)
    return mask[0], thresholds[0]


@dataclass(frozen=True)
class Detection:
    """One CFAR hit in a (doppler, range) power map; doppler_bin is centered."""

    range_bin: int
    doppler_bin: int
    power: float
    threshold: float
    snr_db: float


def cfar_2d(
    map_linear: np.ndarray,
    range_params: CfarParams,
    doppler_params: CfarParams,
) -> list[Detection]:
    """Detect cells passing CA-CFAR along the range axis AND the doppler axis.

    ``map_linear`` is a (doppler, range) linear-power map. The recorded
    threshold is the larger of the two per-axis thresholds; SNR is the cell
    power against the noise estimate behind that larger threshold. The AND
    composition is conservative: its false-alarm rate is below either axis's
    pfa on homogeneous noise.
    """
    m = np.asarray(map_linear, dtype=np.float64)
    if m.ndim != 2:
        raise WindowError(f"expected a 2-d map, got {m.ndim}-d")
    n_doppler = m.shape[0]
    mask_r, thr_r, noise_r = _cfar_rows(m, range_params)
    mask_d_t, thr_d_t, noise_d_t = _cfar_rows(np.ascontiguousarray(m.T), doppler_params)
    mask_d, thr_d, noise_d = mask_d_t.T, thr_d_t.T, noise_d_t.T
    detections = []
    for row, col in np.argwhere(mask_r & mask_d):
        use_range = thr_r[row, col] >= thr_d[row, col]
        noise = noise_r[row, col] if use_range else noise_d[row, col]
        detections.append(
            Detection(
                range_bin=int(col),
                doppler_bin=int(row) - n_doppler // 2,
                power=float(m[row, col]),
                threshold=float(max(thr_r[row, col], thr_d[row, col])),
                snr_db=10.0 * math.log10(m[row, col] / noise),
            )
        )
    return detections


def log_gabor_filter(
    map_values: np.ndarray, f0_cycles: float, sigma_ratio: float
) -> np.ndarray:
    """Isotropic log-Gabor bandpass of a real 2-d map.

    The radial transfer G(f) = exp(-(ln(f/f0))^2 / (2 (ln sigma_ratio)^2)),
    with G(0) = 0, peaks at unity on the ring |f| = f0 (cycles/sample) and
    suppresses DC entirely.
    """
    if not 0.0 < f0_cycles < 0.5:
        raise ParamError(f"f0_cycles must be in (0, 0.5), got {f0_cycles}")
    if not 0.0 < sigma_ratio < 1.0:
        raise ParamError(f"sigma_ratio must be in (0, 1), got {sigma_ratio}")
    m = np.asarray(map_values, dtype=np.float64)
    if m.ndim != 2:
        raise ParamError(f"expected a 2-d map, got {m.ndim}-d")
    fy = np.fft.fftfreq(m.shape[0])[:, np.newaxis]
    fx = np.fft.fftfreq(m.shape[1])[np.newaxis, :]
    radial = np.hypot(fy, fx)
    with np.errstate(divide="ignore"):
        transfer = np.exp(
            -np.log(radial / f0_cycles) ** 2 / (2.0 * math.log(sigma_ratio) ** 2)
        )
    transfer[radial == 0.0] = 0.0
    return np.fft.ifft2(np.fft.fft2(m) * transfer).real


_NEIGHBORS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_NEIGHBORS_8 = _NEIGHBORS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def group_peaks(
    detections: Sequence[Detection], connectivity: int = 8
) -> list[Detection]:
    """Reduce each connected cluster of detections to its strongest cell."""
    if connectivity == 4:
        offsets = _NEIGHBORS_4
    elif connectivity == 8:
        offsets = _NEIGHBORS_8
    else:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    by_cell = {(d.doppler_bin, d.range_bin): d for d in detections}
    seen: set[tuple[int, int]] = set()
    peaks = []
    for cell in by_cell:
        if cell in seen:
            continue
        stack, component = [cell], []
        seen.add(cell)
        while stack:
            cur = stack.pop()
            component.append(by_cell[cur])
            for dr, dc in offsets:
                nxt = (cur[0] + dr, cur[1] + dc)
                if nxt in by_cell and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        peaks.append(max(component, key=lambda d: d.power))
    peaks.sort(key=lambda d: (d.doppler_bin, d.range_bin))
    return peaks


@dataclass(frozen=True)
class PointCloudPoint:
    x_m: float
    y_m: float
    radial_velocity_m_s: float
    snr_db: float
    azimuth_deg: float
    range_m: float


@dataclass(frozen=True)
class PointCloud:
    """Detected points in radar Cartesian coordinates (x across, y boresight)."""

    points: tuple[PointCloudPoint, ...]
    frame_index: int = 0

    def __len__(self) -> int:
        return len(self.points)


def to_point_cloud(
    detections: Sequence[Detection],
    per_detection_angles: Sequence[Sequence[tuple[float, float]]],
    cfg: RadarConfig,
    frame_index: int = 0,
) -> PointCloud:
    """One point per (detection, estimated angle) pair.

    ``per_detection_angles`` holds one ``peak_angles``-style list per
    detection; a detection with an empty list is dropped.
    """
    if len(detections) != len(per_detection_angles):
        raise ValueError(
            f"{len(detections)} detections but {len(per_detection_angles)} angle lists"
        )
    ranges = bin_to_range(np.array([d.range_bin for d in detections], dtype=int), cfg)
    velocities = bin_to_velocity(
        np.array([d.doppler_bin for d in detections], dtype=int), cfg
    )
    points = []
    for det, angles, range_m, velocity in zip(
        detections, per_detection_angles, ranges.tolist(), velocities.tolist()
    ):
        for azimuth_deg, _power in angles:
            theta = math.radians(azimuth_deg)
            points.append(
                PointCloudPoint(
                    x_m=range_m * math.sin(theta),
                    y_m=range_m * math.cos(theta),
                    radial_velocity_m_s=velocity,
                    snr_db=det.snr_db,
                    azimuth_deg=azimuth_deg,
                    range_m=range_m,
                )
            )
    return PointCloud(points=tuple(points), frame_index=frame_index)


POINT_CLOUD_CSV_HEADER = "frame,range_m,azimuth_deg,velocity_m_s,snr_db,x_m,y_m"


def write_point_cloud_csv(clouds: Iterable[PointCloud] | PointCloud, path) -> None:
    """CSV of point clouds, one row per point, 6 significant digits."""
    if isinstance(clouds, PointCloud):
        clouds = [clouds]
    with open(path, "w", encoding="utf-8") as f:
        f.write(POINT_CLOUD_CSV_HEADER + "\n")
        for cloud in clouds:
            for p in cloud.points:
                f.write(
                    f"{cloud.frame_index},{p.range_m:.6g},{p.azimuth_deg:.6g},"
                    f"{p.radial_velocity_m_s:.6g},{p.snr_db:.6g},"
                    f"{p.x_m:.6g},{p.y_m:.6g}\n"
                )
