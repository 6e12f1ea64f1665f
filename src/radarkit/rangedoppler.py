"""Windowed FFT processing: data cube -> range profiles -> range-Doppler maps.

The forward FFT is unnormalized (no 1/N factor) throughout; range output is
one-sided because samples are complex baseband. The Doppler axis of a
RangeDopplerCube is centered so bin N_c/2 is zero velocity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import DataCube, RadarConfig, RadarError


class LengthError(RadarError):
    """Requested window length is too short."""


class ShapeError(RadarError):
    """Input array shape is inconsistent with the radar configuration."""


class WindowKind(enum.Enum):
    RECTANGULAR = "rectangular"
    HANN = "hann"
    HAMMING = "hamming"
    BLACKMAN = "blackman"


class Accumulation(enum.Enum):
    COHERENT_SUM = "coherent_sum"
    NONCOHERENT_SUM = "noncoherent_sum"


DB_FLOOR = -300.0  # dB floor of power maps; linear 1e-30


def window(kind: WindowKind, length: int) -> np.ndarray:
    """Return the symmetric window coefficients of the named family.

    Closed forms, with n = 0 .. L-1:

        rectangular  1
        hann         0.5  - 0.5  cos(2 pi n / (L-1))
        hamming      0.54 - 0.46 cos(2 pi n / (L-1))
        blackman     0.42 - 0.5  cos(2 pi n / (L-1)) + 0.08 cos(4 pi n / (L-1))
    """
    if length < 2:
        raise LengthError(f"window length must be >= 2, got {length}")
    n = np.arange(length, dtype=np.float64)
    x = 2.0 * np.pi * n / (length - 1)
    if kind is WindowKind.RECTANGULAR:
        return np.ones(length)
    if kind is WindowKind.HANN:
        return 0.5 - 0.5 * np.cos(x)
    if kind is WindowKind.HAMMING:
        return 0.54 - 0.46 * np.cos(x)
    if kind is WindowKind.BLACKMAN:
        return 0.42 - 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    raise ValueError(f"unknown window kind {kind!r}")


def coherent_gain(kind: WindowKind, length: int) -> float:
    """Mean of the window coefficients: the scaling an on-bin tone's peak sees."""
    return float(window(kind, length).mean())


def range_processing(
    cube: DataCube,
    window_kind: WindowKind = WindowKind.RECTANGULAR,
) -> np.ndarray:
    """Window and FFT each chirp along the sample axis.

    Returns a (chirp, rx, range_bin) complex array; no shift is applied since
    complex baseband range is one-sided.
    """
    w = window(window_kind, cube.config.samples_per_chirp)
    return np.fft.fft(cube.data * w[np.newaxis, np.newaxis, :], axis=-1)


@dataclass(frozen=True, eq=False)
class RangeDopplerCube:
    """Post-Doppler-FFT complex tensor, shape (doppler_bin, virtual_rx, range_bin).

    The doppler axis is FFT-shifted: bin index N_c/2 is zero velocity.
    Virtual receiver v = tx * num_rx + rx.
    """

    data: np.ndarray
    config: RadarConfig = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def num_doppler_bins(self) -> int:
        return self.data.shape[0]

    @property
    def num_virtual_rx(self) -> int:
        return self.data.shape[1]

    @property
    def num_range_bins(self) -> int:
        return self.data.shape[2]

    def centered_bins(self) -> np.ndarray:
        """Signed doppler bin index of each row (row - N/2)."""
        n = self.num_doppler_bins
        return np.arange(n) - n // 2


def doppler_processing(
    range_cube: np.ndarray,
    cfg: RadarConfig,
    window_kind: WindowKind = WindowKind.RECTANGULAR,
) -> RangeDopplerCube:
    """Regroup TX-interleaved chirps into virtual receivers and FFT slow time.

    The chirp axis (TX-major interleave: chirp q fired by TX q mod M) is
    reshaped to (slow_time, virtual_rx = tx * num_rx + rx), windowed and
    FFT'd along slow time, then center-shifted so bin N_c/2 is zero Doppler.
    """
    arr = np.asarray(range_cube)
    if arr.ndim != 3:
        raise ShapeError(f"expected a 3-d (chirp, rx, range) array, got {arr.ndim}-d")
    n_chirps, n_rx, n_range = arr.shape
    if n_rx != cfg.num_rx:
        raise ShapeError(f"rx axis has {n_rx} elements, config says {cfg.num_rx}")
    m = cfg.num_tx
    if n_chirps % m != 0:
        raise ShapeError(
            f"chirp count {n_chirps} not divisible by num_tx {m}"
        )
    n_slow = n_chirps // m
    # (slow, tx, rx, range): chirp q = slow * M + tx by the interleave order.
    regrouped = arr.reshape(n_slow, m, n_rx, n_range)
    regrouped = regrouped.reshape(n_slow, m * n_rx, n_range)
    w = window(window_kind, n_slow)
    spectrum = np.fft.fft(regrouped * w[:, np.newaxis, np.newaxis], axis=0)
    spectrum = np.fft.fftshift(spectrum, axes=0)
    return RangeDopplerCube(data=spectrum, config=cfg)


def accumulate_power(
    rd_cube: RangeDopplerCube,
    accumulation: Accumulation = Accumulation.NONCOHERENT_SUM,
) -> np.ndarray:
    """Linear-power (doppler, range) map accumulated across virtual receivers.

    noncoherent_sum adds per-antenna |z|^2; coherent_sum takes |sum z|^2.
    """
    if accumulation is Accumulation.NONCOHERENT_SUM:
        return np.sum(np.abs(rd_cube.data) ** 2, axis=1)
    if accumulation is Accumulation.COHERENT_SUM:
        return np.abs(np.sum(rd_cube.data, axis=1)) ** 2
    raise ValueError(f"unknown accumulation {accumulation!r}")


def to_db(power_linear: np.ndarray) -> np.ndarray:
    """10 log10 of a linear power map, floored at -300 dB."""
    return 10.0 * np.log10(np.maximum(power_linear, 10.0 ** (DB_FLOOR / 10.0)))


def power_map(
    rd_cube: RangeDopplerCube,
    accumulation: Accumulation = Accumulation.NONCOHERENT_SUM,
) -> np.ndarray:
    """Real (doppler, range) map in dB; see ``accumulate_power`` for modes."""
    return to_db(accumulate_power(rd_cube, accumulation))


def write_power_map_csv(map_db: np.ndarray, path) -> None:
    """Plain-text CSV of a dB power map, one row per doppler bin."""
    np.savetxt(path, np.atleast_2d(map_db), fmt="%.6g", delimiter=",")


def write_power_map_pgm(map_db: np.ndarray, path) -> None:
    """16-bit binary PGM of a dB power map, linearly rescaled to 0..65535."""
    arr = np.atleast_2d(np.asarray(map_db, dtype=np.float64))
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = np.round((arr - lo) / (hi - lo) * 65535.0).astype(np.uint16)
    else:
        scaled = np.zeros(arr.shape, dtype=np.uint16)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii"))
        f.write(scaled.astype(">u2").tobytes())
