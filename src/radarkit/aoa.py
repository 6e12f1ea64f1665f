"""Azimuth estimation on the MIMO virtual array: FFT, Bartlett, Capon, MUSIC.

The virtual array is the set of effective receiver positions created by TDM
MIMO operation: element v = t * num_rx + r sits at t * tx_spacing +
r * rx_spacing wavelengths. A plane wave from azimuth theta (positive toward
increasing element position) puts phase exp(j 2 pi position sin(theta)) on
each element, which is the steering vector all spectra scan against.

A pipeline estimates every detection of a frame at once (``estimate_angles``)
against an ``AoaPlan`` built once per config. The per-matrix public functions
(``covariance``, ``sorted_eig``, ``music``, ...) run the same kernels on a
stack of one, so both give the same numbers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RadarConfig, RadarError, validate_config
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
        pos = np.ascontiguousarray(self.positions_wavelengths, dtype=np.float64)
        pos.setflags(write=False)
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
    validate_config(cfg)
    t = np.arange(cfg.num_tx)
    r = np.arange(cfg.num_rx)
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


def _steering_matrix(grid_deg: np.ndarray, array: VirtualArray) -> np.ndarray:
    """(n_elements, n_angles) steering vectors for a whole grid."""
    sin_theta = np.sin(np.radians(grid_deg))
    return np.exp(
        2j * np.pi * array.positions_wavelengths[:, np.newaxis] * sin_theta[np.newaxis, :]
    )


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
    (None for a single TX, which needs none). ``grid_deg`` and its
    (elements, angles) ``steering`` matrix are None when no scan grid was
    asked for (FFT estimation uses none). Arrays are read-only, so frames on
    different threads share one plan.
    """

    array: VirtualArray
    tdm_phase: np.ndarray | None
    grid_deg: np.ndarray | None = None
    steering: np.ndarray | None = None

    def __post_init__(self):
        for name in ("tdm_phase", "grid_deg", "steering"):
            value = getattr(self, name)
            if value is not None:
                value = np.ascontiguousarray(value)
                value.setflags(write=False)
                object.__setattr__(self, name, value)


def aoa_plan(cfg: RadarConfig, grid_step_deg: float | None = None) -> AoaPlan:
    """Build the plan for ``cfg``; without ``grid_step_deg``, no scan grid."""
    array = virtual_array(cfg)
    phase = None
    if cfg.num_tx > 1:
        n = cfg.chirps_per_frame_per_tx
        phase = _tdm_phase(cfg, np.arange(n) - n // 2, len(array))
    if grid_step_deg is None:
        return AoaPlan(array, phase)
    grid = default_angle_grid(grid_step_deg)
    return AoaPlan(array, phase, grid, _steering_matrix(grid, array))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian spatial covariance estimate plus its snapshot count."""

    matrix: np.ndarray
    n_snapshots: int

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

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
    """``estimate_source_count`` for each row of a stack of eigenvalues."""
    return np.sum(vals > 10.0 * np.median(vals, axis=-1, keepdims=True), axis=-1)


@dataclass(frozen=True)
class AngleSpectrum:
    """Azimuth power spectrum on a strictly increasing grid in (-90, 90)."""

    angles_deg: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        ang = np.ascontiguousarray(self.angles_deg, dtype=np.float64)
        pwr = np.ascontiguousarray(self.power, dtype=np.float64)
        if ang.shape != pwr.shape:
            raise ValueError("angles and power must have the same length")
        ang.setflags(write=False)
        pwr.setflags(write=False)
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
    angles, power = _fft_spectra(x[np.newaxis], array, n_bins)
    return AngleSpectrum(angles_deg=angles, power=power[0])


def _fft_spectra(
    x: np.ndarray, array: VirtualArray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """``aoa_fft`` of each row of (detection, element) snapshots: angles, powers."""
    d = array.uniform_spacing()
    if d is None:
        raise GeometryError("aoa_fft requires a uniformly spaced array")
    if x.shape[-1] != len(array):
        raise GeometryError(
            f"snapshot has {x.shape[-1]} elements, array has {len(array)}"
        )
    if n_bins < x.shape[-1]:
        raise ValueError(f"n_bins {n_bins} < array length {x.shape[-1]}")
    spectrum = np.fft.fftshift(np.fft.fft(x, n=n_bins, axis=-1), axes=-1)
    centered = np.arange(n_bins) - n_bins // 2
    sin_theta = centered / (n_bins * d)
    visible = np.abs(sin_theta) < 1.0
    angles = np.degrees(np.arcsin(sin_theta[visible]))
    return angles, np.abs(spectrum[..., visible]) ** 2


def _grid_and_steering(
    array: VirtualArray, grid_deg: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    grid = default_angle_grid() if grid_deg is None else np.asarray(grid_deg)
    return grid, _steering_matrix(grid, array)


def bartlett(
    R: CovarianceMatrix, array: VirtualArray, grid_deg: np.ndarray | None = None
) -> AngleSpectrum:
    """Conventional beamformer spectrum P = a^H R a / (a^H a)."""
    grid, a = _grid_and_steering(array, grid_deg)
    return AngleSpectrum(angles_deg=grid, power=_bartlett_power(R.matrix, a))


def _bartlett_power(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    p = np.einsum("ig,ig->g", a.conj(), r @ a).real
    return np.maximum(p / a.shape[0], 0.0)


def capon(
    R: CovarianceMatrix, array: VirtualArray, grid_deg: np.ndarray | None = None
) -> AngleSpectrum:
    """Adaptive (minimum-variance) spectrum P = 1 / (a^H R^-1 a).

    R must be invertible; load the covariance estimate first when snapshots
    are scarce (see ``covariance``).
    """
    _check_invertible(R.matrix[np.newaxis])
    grid, a = _grid_and_steering(array, grid_deg)
    return AngleSpectrum(angles_deg=grid, power=_capon_power(R.matrix, a))


def _check_invertible(matrices: np.ndarray) -> None:
    """Raise SingularError if any matrix of the stack is too ill-conditioned."""
    if np.any(np.linalg.cond(matrices) > _CAPON_MAX_CONDITION):
        raise SingularError(
            f"covariance condition number exceeds {_CAPON_MAX_CONDITION:.0e}; "
            "increase diagonal loading"
        )


def _capon_power(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    denom = np.einsum("ig,ig->g", a.conj(), np.linalg.solve(r, a)).real
    return 1.0 / np.maximum(denom, np.finfo(np.float64).tiny)


def music(
    R: CovarianceMatrix,
    array: VirtualArray,
    n_sources: int,
    grid_deg: np.ndarray | None = None,
) -> AngleSpectrum:
    """Noise-subspace pseudo-spectrum P = 1 / ||E_n^H a||^2.

    E_n spans the eigenvectors of the size - n_sources smallest eigenvalues.
    """
    _check_rank(n_sources, R.size)
    grid, a = _grid_and_steering(array, grid_deg)
    _, vecs = sorted_eig(R)
    return AngleSpectrum(angles_deg=grid, power=_music_power(vecs[:, n_sources:], a))


def _check_rank(n_sources: int, size: int) -> None:
    if not 1 <= n_sources < size:
        raise RankError(f"n_sources must be in [1, {size - 1}], got {n_sources}")


def _music_power(noise_basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    proj = noise_basis.conj().T @ a
    denom = np.sum(np.abs(proj) ** 2, axis=0)
    return 1.0 / np.maximum(denom, np.finfo(np.float64).tiny)


def peak_angles(
    spectrum: AngleSpectrum, max_peaks: int = 1
) -> list[tuple[float, float]]:
    """Strict interior local maxima as (angle_deg, power), strongest first."""
    return _peaks(spectrum.angles_deg, spectrum.power, max_peaks)


def _peaks(angles: np.ndarray, p: np.ndarray, max_peaks: int) -> list[tuple[float, float]]:
    if max_peaks < 1:
        raise ValueError(f"max_peaks must be >= 1, got {max_peaks}")
    if len(p) < 3:
        return []
    interior = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])) + 1
    order = interior[np.argsort(p[interior])[::-1]]
    return [(float(angles[i]), float(p[i])) for i in order[:max_peaks]]


def estimate_angles(
    plan: AoaPlan,
    rd_cube: RangeDopplerCube,
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

    Detection i is the cell at centered ``doppler_bins[i]``, ``range_bins[i]``
    of the uncompensated ``rd_cube``; its snapshots are TDM-compensated as
    they are gathered. FFT takes that cell's row; the covariance methods take
    the whole range column, one (detection, element, element) stack for the
    frame. Results equal a per-detection loop over ``doppler_compensate``,
    ``covariance`` (loaded by ``capon_loading`` under Capon only), the named
    estimator and ``peak_angles`` (``music`` with ``estimate_source_count``
    clipped to [1, elements - 1] if ``music_n_sources`` is None). ``plan``
    must have a grid unless ``method`` is FFT.
    """
    if not len(range_bins):
        return []
    rows = np.asarray(doppler_bins) + rd_cube.num_doppler_bins // 2
    cols = np.asarray(range_bins)
    phase = plan.tdm_phase
    if method is AoaMethod.FFT:
        x = rd_cube.data[rows, :, cols]
        if phase is not None:
            x = x * phase[rows]
        angles, powers = _fft_spectra(x, plan.array, fft_bins)
        return [_peaks(angles, p, max_peaks) for p in powers]
    x = rd_cube.data[:, :, cols]
    if phase is not None:
        x = x * phase[:, :, np.newaxis]
    loading = capon_loading if method is AoaMethod.CAPON else 0.0
    r = _covariances(np.moveaxis(x, -1, 0), loading)
    a = plan.steering
    if method is AoaMethod.BARTLETT:
        powers = (_bartlett_power(m, a) for m in r)
    elif method is AoaMethod.CAPON:
        _check_invertible(r)
        powers = (_capon_power(m, a) for m in r)
    else:
        vals, vecs = _sorted_eigs(r)
        if music_n_sources is None:
            counts = np.minimum(np.maximum(_source_counts(vals), 1), len(plan.array) - 1)
        else:
            counts = np.full(len(r), music_n_sources)
        for k in counts:
            _check_rank(k, len(plan.array))
        powers = (_music_power(v[:, k:], a) for v, k in zip(vecs, counts))
    return [_peaks(plan.grid_deg, p, max_peaks) for p in powers]
