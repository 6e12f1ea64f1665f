"""Azimuth estimation on the MIMO virtual array: FFT, Bartlett, Capon, MUSIC.

The virtual array is the set of effective receiver positions created by TDM
MIMO operation: element v = t * num_rx + r sits at t * tx_spacing +
r * rx_spacing wavelengths. A plane wave from azimuth theta (positive toward
increasing element position) puts phase exp(j 2 pi position sin(theta)) on
each element, which is the steering vector all spectra scan against.

Bartlett, Capon and MUSIC scan a^H M a for M = R, R^-1 and E_n E_n^H: for
Hermitian M, tr(M) + 2 Re sum_lag c_lag exp(j 2 pi lag sin(theta)), c_lag
summing M[j, l], j < l, over p_l - p_j = lag (Barabell 1983's root-MUSIC
polynomial). One ``np.einsum`` of a stack's lag sums against a frame-invariant
(lag, angle) phasor table scans it with no BLAS call, so no BLAS threads wake.

A pipeline estimates every detection of a frame at once (``estimate_angles``)
against an ``AoaPlan`` built once per config, and picks the peaks of all its
spectra in one pass. The per-matrix public functions
(``covariance``, ``sorted_eig``, ``music``, ...) run the same kernels on a
stack of one, so both give the same numbers.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RadarConfig, RadarError, readonly_view
from .rangedoppler import RangeDopplerCube

DEFAULT_GRID_STEP_DEG = 0.1
# Most FFT bins or scan-grid angles a config may ask for: each is a column of
# every spectrum, so a larger value is a config error, not a frame-0 failure.
MAX_ANGLE_BINS = 65536
_CAPON_MAX_CONDITION = 1e12


class AoaMethod(enum.Enum):
    FFT = "fft"
    BARTLETT = "bartlett"
    CAPON = "capon"
    MUSIC = "music"


class DomainError(RadarError):
    """Angle argument outside the open (-90, 90) degree domain."""


class GeometryError(RadarError):
    """Array geometry does not support the requested operation."""


class SingularError(RadarError):
    """Covariance matrix is too ill-conditioned to invert."""


class RankError(RadarError):
    """Source count is incompatible with the array size."""


@dataclass(frozen=True)
class VirtualArray:
    """Virtual element positions in wavelengths, in virtual-index order."""

    positions_wavelengths: np.ndarray

    def __post_init__(self):
        pos = readonly_view(self.positions_wavelengths, np.float64)
        object.__setattr__(self, "positions_wavelengths", pos)

    def __len__(self) -> int:
        return len(self.positions_wavelengths)

    def uniform_spacing(self, tol: float = 1e-9) -> float | None:
        """Common element spacing in wavelengths, or None if non-uniform."""
        diffs = np.diff(self.positions_wavelengths)
        if len(diffs) == 0:
            return None
        d = float(diffs[0])
        if d <= 0 or not np.allclose(diffs, d, rtol=0, atol=tol):
            return None
        return d


def virtual_array(cfg: RadarConfig) -> VirtualArray:
    """Virtual array implied by the config's TX/RX line geometry."""
    t = np.arange(cfg.num_tx, dtype=np.float64)
    r = np.arange(cfg.num_rx, dtype=np.float64)
    pos = (
        t[:, np.newaxis] * cfg.tx_spacing_wavelengths
        + r[np.newaxis, :] * cfg.rx_spacing_wavelengths
    )
    return VirtualArray(positions_wavelengths=pos.reshape(-1))


def steering_vector(theta_deg: float, array: VirtualArray) -> np.ndarray:
    """Unit-magnitude per-element response to a plane wave from ``theta_deg``."""
    if not -90.0 < theta_deg < 90.0:
        raise DomainError(f"theta must be in (-90, 90) degrees, got {theta_deg}")
    sin_theta = np.sin(np.radians(theta_deg))
    return np.exp(2j * np.pi * array.positions_wavelengths * sin_theta)


def default_angle_grid(step_deg: float = DEFAULT_GRID_STEP_DEG) -> np.ndarray:
    """Azimuth scan grid: -90 to 90 in ``step_deg`` steps, endpoints excluded."""
    n = int(round(180.0 / step_deg))
    return -90.0 + step_deg * np.arange(1, n)


def _tdm_phase(cfg: RadarConfig, centered_bins: np.ndarray, n_virtual: int) -> np.ndarray:
    """(doppler row, virtual element) rotation exp(-j 2 pi b t / (N_c M))."""
    t = np.arange(n_virtual) // cfg.num_rx
    return np.exp(
        -2j * np.pi * centered_bins[:, np.newaxis] * t[np.newaxis, :]
        / (cfg.chirps_per_frame_per_tx * cfg.num_tx)
    )


def doppler_compensate(rd_cube: RangeDopplerCube) -> RangeDopplerCube:
    """Remove the TDM firing-delay phase from each virtual element.

    Each TX fires T_c apart, so a target at centered Doppler bin b carries an
    extra phase of 2 pi b t / (N_c M) on elements fired by TX t. The rotation
    exp(-j 2 pi b t / (N_c M)) undoes it; per-cell magnitudes are untouched.
    Identity for single-TX configs.
    """
    cfg = rd_cube.config
    if cfg.num_tx == 1:
        return rd_cube
    phase = _tdm_phase(cfg, rd_cube.centered_bins(), rd_cube.num_virtual_rx)
    return RangeDopplerCube(
        data=rd_cube.data * phase[:, :, np.newaxis], config=cfg
    )


@dataclass(frozen=True, eq=False)
class AoaPlan:
    """Frame-invariant inputs of angle estimation for one config.

    ``tdm_phase`` is the ``doppler_compensate`` rotation by Doppler row
    (None for a single TX, which needs none). On a scan grid ``grid_deg``,
    ``pair_lag`` maps each pair j < l (``np.triu_indices`` order) to the row
    of its lag p_l - p_j in ``phasors``, the (cos/sin, lag, angle) table of
    2 pi lag sin(theta); all three are None without a grid (FFT). A plan
    without a grid holds the array's ``uniform_spacing()`` in ``spacing``.
    Arrays are read-only, so frames on different threads share one plan.
    """

    array: VirtualArray
    tdm_phase: np.ndarray | None
    grid_deg: np.ndarray | None = None
    pair_lag: np.ndarray | None = None
    phasors: np.ndarray | None = None
    spacing: float | None = None

    def __post_init__(self):
        for name in ("tdm_phase", "grid_deg", "pair_lag", "phasors"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, readonly_view(value))


def aoa_plan(cfg: RadarConfig, grid_step_deg: float | None = None) -> AoaPlan:
    """Build the plan for ``cfg``; without ``grid_step_deg``, no scan grid."""
    array = virtual_array(cfg)
    phase = None
    if cfg.num_tx > 1:
        n = cfg.chirps_per_frame_per_tx
        phase = _tdm_phase(cfg, np.arange(n) - n // 2, len(array))
    if grid_step_deg is None:
        return AoaPlan(array, phase, spacing=array.uniform_spacing())
    return _scan_plan(array, default_angle_grid(grid_step_deg), phase)


def _scan_plan(array: VirtualArray, grid_deg, tdm_phase=None) -> AoaPlan:
    """Plan scanning ``grid_deg`` (default: ``default_angle_grid()``) on ``array``."""
    grid_deg = default_angle_grid() if grid_deg is None else grid_deg
    pos = array.positions_wavelengths
    j, l = np.triu_indices(len(pos), 1)
    # Exact equality: lags that differ only by rounding keep rows of their own.
    lags, pair_lag = np.unique(pos[l] - pos[j], return_inverse=True)
    arg = 2 * np.pi * lags[:, np.newaxis] * np.sin(np.radians(grid_deg))[np.newaxis, :]
    return AoaPlan(array, tdm_phase, grid_deg, pair_lag, np.stack([np.cos(arg), np.sin(arg)]))


def _quadratic_forms(plan: AoaPlan, m: np.ndarray) -> np.ndarray:
    """(matrix, angle) a^H M a for a stack of Hermitian M; each row from its own M."""
    j, l = np.triu_indices(m.shape[-1], 1)
    sums = np.zeros((len(m), plan.phasors.shape[1]), np.complex128)
    np.add.at(sums, (slice(None), plan.pair_lag), m[:, j, l])
    # Re(c exp(j x)) = Re(c) cos(x) - Im(c) sin(x); einsum without optimize calls no BLAS.
    coef = 2.0 * np.concatenate([sums.real, -sums.imag], axis=-1)
    q = np.einsum("dk,kg->dg", coef, plan.phasors.reshape(-1, plan.phasors.shape[-1]))
    q += np.trace(m, axis1=-2, axis2=-1).real[:, np.newaxis]
    return q


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian spatial covariance estimate plus its snapshot count."""

    matrix: np.ndarray
    n_snapshots: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", readonly_view(self.matrix, np.complex128))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def covariance(snapshots: np.ndarray, loading: float = 0.0) -> CovarianceMatrix:
    """Sample covariance of row-vector snapshots with optional diagonal loading.

    R = (1/n) sum_i x_i x_i^H + loading * (trace(R)/size) * I. Loading is
    relative to the mean eigenvalue, so 1e-3 guarantees invertibility without
    noticeably biasing the spectrum.
    """
    x = np.atleast_2d(np.asarray(snapshots, dtype=np.complex128))
    if loading < 0:
        raise ValueError(f"loading must be >= 0, got {loading}")
    r = _covariances(x[np.newaxis], loading)[0]
    return CovarianceMatrix(matrix=r, n_snapshots=x.shape[0])


def _covariances(x: np.ndarray, loading: float) -> np.ndarray:
    """``covariance`` of each (snapshot, element) matrix of a stack."""
    r = np.swapaxes(x, -1, -2) @ x.conj() / x.shape[-2]
    r = 0.5 * (r + np.swapaxes(r.conj(), -1, -2))
    if loading > 0:
        size = r.shape[-1]
        scale = loading * (np.trace(r, axis1=-2, axis2=-1).real / size)
        r = r + scale[..., np.newaxis, np.newaxis] * np.eye(size)
    return r


def sorted_eig(R: CovarianceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with eigenvalues descending and deterministic signs.

    Each eigenvector is rotated so its first nonzero component is real
    positive, which makes eigenvector-based spectra reproducible across runs.
    """
    vals, vecs = _sorted_eigs(R.matrix[np.newaxis])
    return vals[0], vecs[0]


def _sorted_eigs(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sorted_eig`` of each matrix of a stack, in one batched ``eigh``."""
    vals, vecs = np.linalg.eigh(matrices)
    vals = vals[..., ::-1]
    vecs = vecs[..., ::-1]
    mag = np.abs(vecs)
    # An eigenvector has unit norm, so some component passes this threshold.
    first = np.argmax(mag > 1e-12 * mag.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(vecs, first[..., np.newaxis, :], axis=-2)
    return vals, vecs * (np.abs(lead) / lead)


def estimate_source_count(R: CovarianceMatrix) -> int:
    """Count eigenvalues above 10x the median eigenvalue (noise floor estimate)."""
    vals, _ = sorted_eig(R)
    return int(_source_counts(vals[np.newaxis])[0])


def _source_counts(vals: np.ndarray) -> np.ndarray:
    """``estimate_source_count`` for each row of a stack of sorted eigenvalues."""
    # np.median's median (NaN for a row holding one: 0 sources) without its numpy.ma import.
    n = vals.shape[-1]
    median = np.mean(vals[..., (n - 1) // 2:n // 2 + 1], axis=-1)
    median = np.where(np.isnan(vals).any(axis=-1), np.nan, median)
    return np.sum(vals > 10.0 * median[..., np.newaxis], axis=-1)


@dataclass(frozen=True)
class AngleSpectrum:
    """Azimuth power spectrum on a strictly increasing grid in (-90, 90)."""

    angles_deg: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        ang = readonly_view(self.angles_deg, np.float64)
        pwr = readonly_view(self.power, np.float64)
        if ang.shape != pwr.shape:
            raise ValueError("angles and power must have the same length")
        object.__setattr__(self, "angles_deg", ang)
        object.__setattr__(self, "power", pwr)

    def argmax_deg(self) -> float:
        return float(self.angles_deg[int(np.argmax(self.power))])


def write_angle_spectrum_csv(spectrum: AngleSpectrum, path) -> None:
    """Two-column CSV: angle_deg, power."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("angle_deg,power\n")
        for a, p in zip(spectrum.angles_deg, spectrum.power):
            f.write(f"{a:.6g},{p:.6g}\n")


def aoa_fft(snapshot: np.ndarray, array: VirtualArray, n_bins: int = 64) -> AngleSpectrum:
    """Angle spectrum by zero-padded FFT across a uniform array's elements.

    Bin k (center-shifted) maps to sin(theta) = k / (n_bins * d) for element
    spacing d in wavelengths; bins landing outside |sin| < 1 are discarded.
    """
    x = np.asarray(snapshot, dtype=np.complex128).reshape(-1)
    angles, power = _fft_spectra(x[np.newaxis], array, array.uniform_spacing(), n_bins)
    return AngleSpectrum(angles_deg=angles, power=power[0])


@functools.cache
def _fft_axis(spacing: float, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only angles of the visible bins of an ``n_bins`` centered FFT
    across elements spaced ``spacing`` wavelengths, and the mask picking them."""
    centered = np.arange(n_bins) - n_bins // 2
    sin_theta = centered / (n_bins * spacing)
    visible = np.abs(sin_theta) < 1.0
    return readonly_view(np.degrees(np.arcsin(sin_theta[visible]))), readonly_view(visible)


def _fft_spectra(
    x: np.ndarray, array: VirtualArray, spacing: float | None, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """``aoa_fft`` of each row of (detection, element) snapshots: angles, powers.

    ``spacing`` is ``array.uniform_spacing()``.
    """
    if spacing is None:
        raise GeometryError("aoa_fft requires a uniformly spaced array")
    if x.shape[-1] != len(array):
        raise GeometryError(
            f"snapshot has {x.shape[-1]} elements, array has {len(array)}"
        )
    if n_bins < x.shape[-1]:
        raise ValueError(f"n_bins {n_bins} < array length {x.shape[-1]}")
    angles, visible = _fft_axis(spacing, n_bins)
    spectrum = np.fft.fftshift(np.fft.fft(x, n=n_bins, axis=-1), axes=-1)
    return angles, np.abs(spectrum[..., visible]) ** 2


def bartlett(
    R: CovarianceMatrix, array: VirtualArray, grid_deg: np.ndarray | None = None
) -> AngleSpectrum:
    """Conventional beamformer spectrum P = a^H R a / (a^H a)."""
    return _grid_spectrum(R, array, grid_deg, AoaMethod.BARTLETT)


def capon(
    R: CovarianceMatrix, array: VirtualArray, grid_deg: np.ndarray | None = None
) -> AngleSpectrum:
    """Adaptive (minimum-variance) spectrum P = 1 / (a^H R^-1 a).

    R must be invertible; load the covariance estimate first when snapshots
    are scarce (see ``covariance``).
    """
    return _grid_spectrum(R, array, grid_deg, AoaMethod.CAPON)


def music(
    R: CovarianceMatrix,
    array: VirtualArray,
    n_sources: int,
    grid_deg: np.ndarray | None = None,
) -> AngleSpectrum:
    """Noise-subspace pseudo-spectrum P = 1 / ||E_n^H a||^2.

    E_n spans the eigenvectors of the size - n_sources smallest eigenvalues.
    """
    return _grid_spectrum(R, array, grid_deg, AoaMethod.MUSIC, n_sources)


def _grid_spectrum(R, array, grid_deg, method, n_sources=None) -> AngleSpectrum:
    plan = _scan_plan(array, grid_deg)
    power = _grid_spectra(plan, method, R.matrix[np.newaxis], n_sources)[0]
    return AngleSpectrum(angles_deg=plan.grid_deg, power=power)


def _grid_spectra(
    plan: AoaPlan, method: AoaMethod, r: np.ndarray, music_n_sources: int | None
) -> np.ndarray:
    """(matrix, angle) spectra of a stack of covariances (MUSIC counts sources if None)."""
    if method is AoaMethod.BARTLETT:
        return np.maximum(_quadratic_forms(plan, r) / len(plan.array), 0.0)
    if method is AoaMethod.CAPON:
        if np.any(np.linalg.cond(r) > _CAPON_MAX_CONDITION):
            raise SingularError(f"covariance condition number exceeds "
                                f"{_CAPON_MAX_CONDITION:.0e}; increase diagonal loading")
        m = np.linalg.inv(r)
    else:
        vals, vecs = _sorted_eigs(r)
        size = r.shape[-1]
        counts = (np.clip(_source_counts(vals), 1, size - 1) if music_n_sources is None
                  else np.full(len(r), music_n_sources))
        for k in counts:
            if not 1 <= k < size:
                raise RankError(f"n_sources must be in [1, {size - 1}], got {k}")
        # ||E_n^H a||^2 = a^H E_n E_n^H a, E_n the columns past each count.
        noise = vecs * (np.arange(size) >= counts[:, np.newaxis])[:, np.newaxis, :]
        m = noise @ np.swapaxes(noise.conj(), -1, -2)
    return 1.0 / np.maximum(_quadratic_forms(plan, m), np.finfo(np.float64).tiny)


def peak_angles(
    spectrum: AngleSpectrum, max_peaks: int = 1
) -> list[tuple[float, float]]:
    """Strict interior local maxima as (angle_deg, power), strongest first.

    Maxima of equal power come in descending angle order.
    """
    return _peaks(spectrum.angles_deg, spectrum.power[np.newaxis], max_peaks)[0]


def _peaks(
    angles: np.ndarray, p: np.ndarray, max_peaks: int
) -> list[list[tuple[float, float]]]:
    """``peak_angles`` of each row of a (spectrum, angle) stack on one grid."""
    if max_peaks < 1:
        raise ValueError(f"max_peaks must be >= 1, got {max_peaks}")
    peaks = [[] for _ in range(len(p))]
    if p.shape[-1] < 3:
        return peaks
    rows, cols = np.nonzero((p[:, 1:-1] > p[:, :-2]) & (p[:, 1:-1] > p[:, 2:]))
    cols += 1
    power = p[rows, cols]
    # By row, then power descending, then angle index descending.
    order = np.lexsort((-cols, -power, rows))
    rows, cols, power = rows[order], cols[order], power[order]
    keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < max_peaks
    for row, angle, pw in zip(rows[keep].tolist(), angles[cols[keep]].tolist(),
                              power[keep].tolist()):
        peaks[row].append((angle, pw))
    return peaks


def estimate_angles(
    plan: AoaPlan,
    data: np.ndarray,
    doppler_bins: Sequence[int],
    range_bins: Sequence[int],
    method: AoaMethod,
    *,
    fft_bins: int,
    music_n_sources: int | None,
    capon_loading: float,
    max_peaks: int,
) -> list[list[tuple[float, float]]]:
    """``peak_angles`` of every detection of one frame, strongest first.

    ``data`` is the uncompensated (doppler, virtual_rx, range) cube with its
    Doppler axis in FFT order, as the Doppler FFT leaves it. Detection i is
    the cell at centered ``doppler_bins[i]`` (row b mod N_c), ``range_bins[i]``;
    its snapshots are TDM-compensated as they are gathered. FFT takes that
    cell's row; the covariance methods take the whole range column in
    centered order, one (detection, element, element) stack for the frame.
    Results equal a per-detection loop over ``doppler_compensate``,
    ``covariance`` (loaded by ``capon_loading`` under Capon only), the named
    estimator and ``peak_angles`` (``music`` with ``estimate_source_count``
    clipped to [1, elements - 1] if ``music_n_sources`` is None) on the
    centered cube. ``plan`` must have a grid unless ``method`` is FFT.
    """
    if not len(range_bins):
        return []
    bins = np.asarray(doppler_bins)
    cols = np.asarray(range_bins)
    phase = plan.tdm_phase
    if method is AoaMethod.FFT:
        x = data[bins % len(data), :, cols]
        if phase is not None:
            x = x * phase[bins + len(data) // 2]
        angles, powers = _fft_spectra(x, plan.array, plan.spacing, fft_bins)
        return _peaks(angles, powers, max_peaks)
    # One gather takes each column in centered order (centered row r is FFT
    # row r - N_c/2) as a C-contiguous (detection, doppler, element) stack,
    # which is compensated in place and freed before the grid scan.
    n = len(data)
    rows = (np.arange(n) - n // 2) % n
    x = data[rows[:, np.newaxis], np.arange(data.shape[1]), cols[:, np.newaxis, np.newaxis]]
    if phase is not None:
        np.multiply(x, phase, out=x)
    loading = capon_loading if method is AoaMethod.CAPON else 0.0
    r = _covariances(x, loading)
    del x
    powers = _grid_spectra(plan, method, r, music_n_sources)
    return _peaks(plan.grid_deg, powers, max_peaks)
