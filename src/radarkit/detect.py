"""CA-CFAR detection, log-Gabor noise filtering, peak grouping, point clouds.

The CFAR threshold multiplier assumes square-law (exponential) noise in the
power domain: with N training cells the scale factor alpha = N (pfa^(-1/N) - 1)
holds the false-alarm probability at pfa exactly for homogeneous noise. Edge
cells shrink to the training cells actually available and recompute alpha for
that count, so the rate stays calibrated at the profile ends too.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    RadarConfig,
    RadarError,
    bin_to_range,
    bin_to_velocity,
    readonly_view,
)


class WindowError(RadarError):
    """CFAR guard/training window does not fit the profile axis."""


class ParamError(RadarError):
    """Filter parameter outside its valid range."""


@dataclass(frozen=True)
class CfarParams:
    """CA-CFAR window shape and target false-alarm rate (cells per side)."""

    guard_cells: int = 2
    train_cells: int = 8
    pfa: float = 1e-4
    circular: bool = False

    def __post_init__(self):
        if self.guard_cells < 0:
            raise ConfigError(f"guard_cells must be >= 0, got {self.guard_cells}")
        if self.train_cells < 1:
            raise ConfigError(f"train_cells must be >= 1, got {self.train_cells}")
        if not 0.0 < self.pfa < 1.0:
            raise ConfigError(f"pfa must be in (0, 1), got {self.pfa}")
        with np.errstate(over="ignore"):
            alpha = cfar_alpha(np.float64(self.pfa), 1)
        if not np.isfinite(alpha):
            raise ConfigError(
                "pfa must give a finite threshold factor with one training cell "
                f"(pfa above about 5.6e-309), got {self.pfa}"
            )


def cfar_alpha(pfa: float, n_train: int | np.ndarray):
    """Threshold multiplier alpha = N (pfa^(-1/N) - 1) for N training cells, per element."""
    return n_train * (pfa ** (-1.0 / n_train) - 1.0)


def _along(a: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    """``a[start:stop]`` along ``axis``."""
    return a[(slice(None),) * axis + (slice(start, stop),)]


_thread = threading.local()
# Largest map, in cells, whose CFAR arrays a thread keeps: 256 x 256, 2.7
# MiB of them. A 128-chirp, 256-sample frame's map is half that.
_HELD_CFAR_CELLS = 1 << 16


def _cfar_buffers(shape: tuple[int, ...], scratch_size: int):
    """This thread's CFAR arrays for a ``shape`` map: (mask, thresholds,
    noise) for axis 0 and for axis 1, and ``scratch_size`` float64 elements
    for the padded cumulative sums; replaced only when a map of another shape
    or a window of another size arrives. Above ``_HELD_CFAR_CELLS`` cells
    they are new arrays that the thread does not keep."""
    buffers = getattr(_thread, "cfar", None)
    if buffers is None or buffers[0][0].shape != shape or buffers[2].size != scratch_size:
        buffers = (
            (np.empty(shape, bool), np.empty(shape), np.empty(shape)),
            (np.empty(shape, bool), np.empty(shape), np.empty(shape)),
            np.empty(scratch_size),
        )
        if math.prod(shape) <= _HELD_CFAR_CELLS:
            _thread.cfar = buffers
    return buffers


def _padded_shape(shape: tuple[int, ...], params: CfarParams, axis: int) -> list[int]:
    """``shape`` with ``axis`` padded as ``_training_sums`` pads it: a leading
    zero and guard + train cells at each end. The window must fit the axis."""
    n, pad = shape[axis], params.guard_cells + params.train_cells
    if 2 * pad >= n:
        raise WindowError(f"CFAR window 2*(guard+train)={2 * pad} does not fit axis of {n}")
    padded = list(shape)
    padded[axis] = n + 2 * pad + 1
    return padded


def _training_sums(x: np.ndarray, params: CfarParams, axis: int, out=None, work=None,
                   scratch=None):
    """Sum of the training cells on both sides of every cell along ``axis``.

    One cumulative sum over the axis padded by guard + train cells at each
    end: the far end of the axis (circular) or zeros (linear: edges sum what
    exists). It runs in ``scratch``, a flat float64 array at least the size
    of the padded ``x``, or a new array. The sum of the cells to the left
    goes to ``out``, the right to ``work`` (arrays shaped like ``x``, new if
    None), and ``out`` returns their sum.
    """
    g, t = params.guard_cells, params.train_cells
    n, pad = x.shape[axis], g + t
    shape = _padded_shape(x.shape, params, axis)
    size = math.prod(shape)
    s = (np.empty(size) if scratch is None else scratch[:size]).reshape(shape)
    _along(s, axis, 0, 1).fill(0.0)
    if params.circular:
        np.copyto(_along(s, axis, 1, pad + 1), _along(x, axis, n - pad, n))
        np.copyto(_along(s, axis, n + pad + 1, n + 2 * pad + 1), _along(x, axis, 0, pad))
    else:
        _along(s, axis, 1, pad + 1).fill(0.0)
        _along(s, axis, n + pad + 1, n + 2 * pad + 1).fill(0.0)
    np.copyto(_along(s, axis, pad + 1, n + pad + 1), x)
    np.cumsum(s, axis=axis, out=s)
    left = np.subtract(_along(s, axis, t, n + t), _along(s, axis, 0, n), out=out)
    right = np.subtract(_along(s, axis, 2 * pad + 1, n + 2 * pad + 1),
                        _along(s, axis, pad + g + 1, n + pad + g + 1), out=work)
    return np.add(left, right, out=left)


@functools.cache
def _cfar_plan(shape: tuple[int, ...], params: CfarParams, axis: int):
    """Read-only training count and ``cfar_alpha`` of every cell along ``axis``
    of a ``shape`` map, shaped to broadcast against it; built once per key."""
    n = shape[axis]
    ones = np.ones([n if a == axis else 1 for a in range(len(shape))])
    counts = _training_sums(ones, params, axis)
    return readonly_view(counts), readonly_view(cfar_alpha(params.pfa, counts))


def _cfar(m: np.ndarray, params: CfarParams, axis: int, out=None, scratch=None):
    """CA-CFAR of every cell of ``m`` along ``axis``.

    Returns (mask, thresholds, noise_estimates), all shaped like ``m``: the
    bool and two float64 arrays of ``out`` if given, else new ones.
    ``scratch`` is ``_training_sums``'. The training count of each cell is
    the same window sum over ones.
    """
    if out is None:
        out = np.empty(m.shape, bool), np.empty(m.shape), np.empty(m.shape)
    mask, thresholds, noise = out
    counts, alpha = _cfar_plan(m.shape, params, axis)
    _training_sums(m, params, axis, out=noise, work=thresholds, scratch=scratch)
    noise /= counts
    np.multiply(alpha, noise, out=thresholds)
    np.greater(m, thresholds, out=mask)
    return mask, thresholds, noise


def ca_cfar_1d(profile: np.ndarray, params: CfarParams):
    """Cell-averaging CFAR over a linear-power profile.

    Returns (mask, thresholds): mask[i] is True iff profile[i] exceeds
    alpha * (mean of its training cells), guards excluded.
    """
    p = np.asarray(profile, dtype=np.float64)
    if p.ndim != 1:
        raise WindowError(f"expected a 1-d profile, got {p.ndim}-d")
    return _cfar(p, params, axis=0)[:2]


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
    power against the noise estimate behind it, inf if that estimate is 0.
    The AND composition is conservative: its false-alarm rate is below
    either axis's pfa on homogeneous noise. Detections are in row-major cell order.
    The per-cell arrays live in buffers of the calling thread, reused by its
    later calls on maps of the same shape and held until the thread exits or
    a map of another shape replaces them: about 43 bytes a cell, 1.35 MiB
    for a 128 x 256 map. Maps above 65536 cells get arrays that are freed on
    return. The returned detections refer to none of them.
    """
    m = np.asarray(map_linear, dtype=np.float64)
    if m.ndim != 2:
        raise WindowError(f"expected a 2-d map, got {m.ndim}-d")
    scratch_size = max(math.prod(_padded_shape(m.shape, params, axis))
                       for params, axis in ((range_params, 1), (doppler_params, 0)))
    doppler_out, range_out, scratch = _cfar_buffers(m.shape, scratch_size)
    mask_r, thr_r, noise_r = _cfar(m, range_params, 1, range_out, scratch)
    mask_d, thr_d, noise_d = _cfar(m, doppler_params, 0, doppler_out, scratch)
    rows, cols = np.nonzero(np.logical_and(mask_r, mask_d, out=mask_r))
    thr_r, thr_d = thr_r[rows, cols], thr_d[rows, cols]
    power = m[rows, cols]
    with np.errstate(divide="ignore"):
        ratio = power / np.where(thr_r >= thr_d, noise_r[rows, cols], noise_d[rows, cols])
    half = m.shape[0] // 2
    return [
        Detection(col, row - half, p, threshold, 10.0 * math.log10(r))
        for row, col, p, threshold, r in zip(
            rows.tolist(), cols.tolist(), power.tolist(),
            np.maximum(thr_r, thr_d).tolist(), ratio.tolist(),
        )
    ]


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
    transfer = _log_gabor_transfer(m.shape, f0_cycles, sigma_ratio)
    return np.fft.ifft2(np.fft.fft2(m) * transfer).real


@functools.cache
def _log_gabor_transfer(shape: tuple, f0_cycles: float, sigma_ratio: float) -> np.ndarray:
    """``log_gabor_filter``'s G(f) on a ``shape`` map, read-only, shared by every frame."""
    radial = np.hypot(np.fft.fftfreq(shape[0])[:, np.newaxis], np.fft.fftfreq(shape[1]))
    with np.errstate(divide="ignore"):
        transfer = np.exp(
            -np.log(radial / f0_cycles) ** 2 / (2.0 * math.log(sigma_ratio) ** 2)
        )
    transfer[radial == 0.0] = 0.0
    transfer.setflags(write=False)
    return transfer


def group_peaks(
    detections: Sequence[Detection], connectivity: int = 8, *, doppler_bins: int
) -> list[Detection]:
    """Reduce each connected cluster of detections to its strongest cell.

    Cells touch by an edge (``connectivity`` 4) or a corner too (8), and the
    Doppler axis of the map's ``doppler_bins`` rows wraps; a bin off it is a
    ``ValueError``. A cell listed twice counts as its last copy. Of equal
    powers, the cell later in (doppler_bin, range_bin) order, the output order, wins.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
               if 0 < abs(dr) + abs(dc) <= connectivity // 4]
    unvisited = {}  # (doppler row, range bin) -> (power, doppler_bin, range_bin, detection)
    for d in detections:
        if not 0 <= d.doppler_bin + doppler_bins // 2 < doppler_bins:
            raise ValueError(f"doppler bin {d.doppler_bin} outside {doppler_bins} centered rows")
        unvisited[d.doppler_bin % doppler_bins, d.range_bin] = (
            d.power, d.doppler_bin, d.range_bin, d)
    peaks = []
    while unvisited:
        stack = [unvisited.popitem()]
        best = stack[0][1]
        while stack:
            (row, col), ranked = stack.pop()
            best = max(best, ranked)
            for dr, dc in offsets:
                if (cell := ((row + dr) % doppler_bins, col + dc)) in unvisited:
                    stack.append((cell, unvisited.pop(cell)))
        peaks.append(best[-1])
    return sorted(peaks, key=lambda d: (d.doppler_bin, d.range_bin))


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


def write_point_cloud_csv(cloud: PointCloud, path) -> None:
    """CSV of one point cloud, one row per point, 6 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(POINT_CLOUD_CSV_HEADER + "\n")
        for p in cloud.points:
            f.write(
                f"{cloud.frame_index},{p.range_m:.6g},{p.azimuth_deg:.6g},"
                f"{p.radial_velocity_m_s:.6g},{p.snr_db:.6g},"
                f"{p.x_m:.6g},{p.y_m:.6g}\n"
            )
