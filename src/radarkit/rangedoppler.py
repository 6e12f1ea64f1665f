"""Windowed FFT processing: data cube -> range profiles -> range-Doppler maps.

The forward FFT is unnormalized (no 1/N factor) throughout; range output is
one-sided because samples are complex baseband. The Doppler axis of a
RangeDopplerCube is centered so bin N_c/2 is zero velocity.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .core import DataCube, RadarConfig, RadarError, readonly_view


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


@functools.cache
def _shared_window(kind: WindowKind, length: int) -> np.ndarray:
    """Read-only ``window(kind, length)``, built once and shared by every frame."""
    return readonly_view(window(kind, length))


def coherent_gain(kind: WindowKind, length: int) -> float:
    """Mean of the window coefficients: the scaling an on-bin tone's peak sees."""
    return float(window(kind, length).mean())


def _range_rows(iq: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """The range stage of whole chirp rows: cast the (chirp, rx, sample, 2)
    pairs ``iq`` into ``out``, a C-contiguous complex128 array of their
    (chirp, rx, sample) shape, window them there by ``w`` and FFT them in
    place. Each row is transformed on its own, so any split of a cube into
    row blocks gives the same bytes as the whole cube."""
    np.copyto(out.view(np.float64).reshape(iq.shape), iq)
    np.multiply(out, w, out=out)
    np.fft.fft(out, axis=-1, out=out)


def range_processing(
    cube: DataCube,
    window_kind: WindowKind = WindowKind.RECTANGULAR,
    *,
    out: np.ndarray | None = None,
    start: int = 0,
) -> np.ndarray:
    """Window and FFT each chirp along the sample axis.

    Returns a (chirp, rx, range_bin) complex array; no shift is applied since
    complex baseband range is one-sided. The cube's ``iq`` pairs are cast
    into the result, windowed there (the complex-by-real product
    ``cube.data * w``) and FFT'd in place, so int16 wire samples are never
    decoded to a complex cube of their own. ``out``, a C-contiguous
    complex128 array of the cube's shape, is that result; without it the
    result is a new array. The chirp rows of ``out`` before ``start`` are
    taken as already holding their range FFT (computed ahead, as the frame
    arrived) and are left as they are; a ``start`` above 0 needs ``out``.
    """
    w = _shared_window(window_kind, cube.config.samples_per_chirp)
    if out is None:
        if start:
            raise ValueError(f"start={start} needs out=, whose rows before it are done")
        out = np.empty(cube.shape, np.complex128)
    _range_rows(cube.iq[start:], w, out[start:])
    return out


@dataclass(frozen=True, eq=False)
class RangeDopplerCube:
    """Post-Doppler-FFT complex tensor, shape (doppler_bin, virtual_rx, range_bin).

    The doppler axis is FFT-shifted: bin index N_c/2 is zero velocity.
    Virtual receiver v = tx * num_rx + rx.
    """

    data: np.ndarray
    config: RadarConfig = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", readonly_view(self.data, np.complex128))

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


def _doppler_fft(cube: np.ndarray, cfg: RadarConfig, window_kind: WindowKind) -> np.ndarray:
    """``doppler_processing`` in place in the range cube ``cube``, a writable
    C-contiguous complex128 array, with the Doppler axis in FFT order: row
    b mod N_c holds bin b. Returns the (slow_time, virtual_rx, range) view."""
    if cube.ndim != 3:
        raise ShapeError(f"expected a 3-d (chirp, rx, range) array, got {cube.ndim}-d")
    n_chirps, n_rx, n_range = cube.shape
    if n_rx != cfg.num_rx:
        raise ShapeError(f"rx axis has {n_rx} elements, config says {cfg.num_rx}")
    m = cfg.num_tx
    if n_chirps % m != 0:
        raise ShapeError(f"chirp count {n_chirps} not divisible by num_tx {m}")
    n_slow = n_chirps // m
    # (slow, tx * rx, range): chirp q = slow * M + tx by the interleave order.
    spectrum = cube.reshape(n_slow, m * n_rx, n_range)
    w = _shared_window(window_kind, n_slow)[:, np.newaxis, np.newaxis]
    np.multiply(spectrum, w, out=spectrum)
    return np.fft.fft(spectrum, axis=0, out=spectrum)


def doppler_processing(
    range_cube: np.ndarray,
    cfg: RadarConfig,
    window_kind: WindowKind = WindowKind.RECTANGULAR,
) -> RangeDopplerCube:
    """Regroup TX-interleaved chirps into virtual receivers and FFT slow time.

    The chirp axis (TX-major interleave: chirp q fired by TX q mod M) is
    reshaped to (slow_time, virtual_rx = tx * num_rx + rx), windowed and
    FFT'd along slow time, then center-shifted so bin N_c/2 is zero Doppler.
    The stage runs on a copy: ``range_cube`` is left unchanged.
    """
    spectrum = _doppler_fft(np.array(range_cube, np.complex128), cfg, window_kind)
    return RangeDopplerCube(data=np.fft.fftshift(spectrum, axes=0), config=cfg)


def _accumulate(data: np.ndarray, accumulation: Accumulation, out=None, work=None) -> np.ndarray:
    """``accumulate_power`` of (doppler, virtual_rx, range) ``data``, row by row,
    so in whatever order its Doppler rows come. ``out`` and ``work``, float64
    (doppler, range) arrays, are the result and noncoherent_sum's |z|^2 of one
    antenna; without them both are new."""
    if accumulation is Accumulation.NONCOHERENT_SUM:
        # Antenna by antenna, in the order np.sum(axis=1) adds them.
        out = np.abs(data[:, 0], out=out)
        np.square(out, out=out)
        for v in range(1, data.shape[1]):
            work = np.abs(data[:, v], out=work)
            out += np.square(work, out=work)
        return out
    if accumulation is Accumulation.COHERENT_SUM:
        out = np.abs(np.sum(data, axis=1), out=out)
        return np.square(out, out=out)
    raise ValueError(f"unknown accumulation {accumulation!r}")


def _center_rows(fft_order: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.fftshift(fft_order, axes=0)`` written into ``out`` by two slice copies."""
    n = len(fft_order)
    half = n // 2
    out[:half] = fft_order[n - half:]
    out[half:] = fft_order[:n - half]
    return out


def accumulate_power(
    rd_cube: RangeDopplerCube,
    accumulation: Accumulation = Accumulation.NONCOHERENT_SUM,
) -> np.ndarray:
    """Linear-power (doppler, range) map accumulated across virtual receivers.

    noncoherent_sum adds per-antenna |z|^2; coherent_sum takes |sum z|^2.
    """
    return _accumulate(rd_cube.data, accumulation)


def to_db(power_linear: np.ndarray) -> np.ndarray:
    """10 log10 of a linear power map, floored at -300 dB, in one new array
    (a scalar for a scalar)."""
    db = np.asarray(np.maximum(power_linear, 10.0 ** (DB_FLOOR / 10.0)))
    np.log10(db, out=db)
    np.multiply(10.0, db, out=db)
    return db if db.ndim else db[()]


def power_map(
    rd_cube: RangeDopplerCube,
    accumulation: Accumulation = Accumulation.NONCOHERENT_SUM,
) -> np.ndarray:
    """Real (doppler, range) map in dB; see ``accumulate_power`` for modes."""
    return to_db(accumulate_power(rd_cube, accumulation))


_CSV_BLOCK_ROWS = 16  # rows encoded per write; bounds the encoder's temporaries
_CSV_EXACT = 120  # template of a cell left to Python's formatter
_CSV_MARK = b"\x01"  # stands for such a cell in the vectorized output
_POW10 = 10.0 ** np.arange(11)  # every entry exact in float64


def _csv_tables():
    """Byte tables of the vectorized '%.6g' encoder, see ``_encode_csv_rows``.

    A cell is laid out in 24 bytes, read as three uint64 words; a 0 byte is
    empty and is dropped from the output:

        0-5    sign, then "0." and up to three zeros when the value is < 1
        8-19   digit j of the 6 significant digits at byte 8 + 2j; the byte
               after digit j < 5 holds the decimal point, the one after
               digit 5 the delimiter

    A template, one per (decimal exponent -4..5, significant digits 1..6,
    sign), holds every byte that is not a digit and 0xFF where a digit is
    printed. The digit tables hold the digits of n // 100 (word 1) and of
    n % 100 (word 2) with 0xFF elsewhere, so a cell is template & digits.
    The significant-digit tables give the position of the last nonzero
    digit, of n // 100 (1..4) and of n % 100 (5..6, or 0 when it is 0), so
    n has max(sig4, sig2) significant digits.
    """
    hi = np.arange(10001)
    hi[-1] = 1000  # n = 10**6, carried to 10**5 one decade up
    digits = hi[:, np.newaxis] // np.array([1000, 100, 10, 1]) % 10
    digits4 = np.full((hi.size, 8), 0xFF, np.uint8)
    digits4[:, ::2] = digits + ord("0")
    sig4 = 4 - np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    lo = np.arange(100)
    digits2 = np.full((lo.size, 8), 0xFF, np.uint8)
    digits2[:, 0] = lo // 10 + ord("0")
    digits2[:, 2] = lo % 10 + ord("0")
    sig2 = np.select([lo % 10 != 0, lo != 0], [6, 5], 0)

    templates = np.zeros((_CSV_EXACT + 1, 24), np.uint8)
    for exp10 in range(-4, 6):
        for n_sig in range(1, 7):
            for neg in (0, 1):
                t = templates[((exp10 + 4) * 6 + n_sig - 1) * 2 + neg]
                n_printed = max(exp10 + 1, n_sig)  # integer digits stay
                t[0] = ord("-") * neg
                if exp10 < 0:
                    t[1:2 - exp10] = ord("0")
                    t[2] = ord(".")
                t[8:8 + 2 * n_printed:2] = 0xFF
                if 0 <= exp10 < n_printed - 1:
                    t[9 + 2 * exp10] = ord(".")
                t[19] = ord(",")
    templates[_CSV_EXACT, 0] = _CSV_MARK[0]
    templates[_CSV_EXACT, 19] = ord(",")
    return (
        templates.view(np.uint64),
        digits4.view(np.uint64).ravel(),
        sig4.astype(np.uint8),
        digits2.view(np.uint64).ravel(),
        sig2.astype(np.uint8),
    )


_CSV_TEMPLATES, _CSV_DIGITS4, _CSV_SIG4, _CSV_DIGITS2, _CSV_SIG2 = _csv_tables()


def _encode_csv_rows(rows: np.ndarray) -> bytes:
    """The bytes np.savetxt(fmt="%.6g", delimiter=",") writes for a 2-d block.

    Vectorized for cells whose 6-significant-digit rounding prints in fixed
    notation (decimal exponent -4..5): |x| is scaled by an exact power of
    ten to s in [1e5, 1e6], a product rounded once, and rint(s) gives the
    digits. Every other cell goes to Python's correctly rounded '%.6g':
    nan, +-inf, +-0, exponent notation, s within 1e-6 of a .5 tie (the
    rounding of s and of x could differ there), and s < 1e5 (log10 put x a
    decade too high).
    """
    if rows.shape[1] == 0:
        return b"\n" * rows.shape[0]
    x = rows.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # the exact-path cells
        ax = np.abs(x)
        k = (5.0 - np.floor(np.log10(ax))).astype(np.intp)
        s = ax * _POW10.take(k, mode="clip")
        n = np.rint(s)
        carry = n == 1e6
        exp10 = 5 - k + carry
        fast = (s >= 1e5) & (s < 1e6 + 0.5) & (np.abs(s - n) < 0.5 - 1e-6)
        fast &= (exp10 >= -4) & (exp10 <= 5)
        n = n.astype(np.intp)
    hi = n // 100
    lo = n - 100 * hi
    n_sig = np.maximum(_CSV_SIG4.take(hi, mode="clip"), _CSV_SIG2.take(lo, mode="clip"))
    key = np.where(fast, ((exp10 + 4) * 6 + n_sig - 1) * 2 + (x < 0), _CSV_EXACT)
    cells = _CSV_TEMPLATES.take(key, axis=0)
    cells[:, 1] &= _CSV_DIGITS4.take(hi, mode="clip")
    cells[:, 2] &= _CSV_DIGITS2.take(lo, mode="clip")
    cells.view(np.uint8).reshape(*rows.shape, 24)[:, -1, 19] = ord("\n")
    text = cells.tobytes().translate(None, b"\0")
    if fast.all():
        return text
    pieces = text.split(_CSV_MARK)
    out = [pieces[0]]
    for value, piece in zip(x[~fast], pieces[1:]):
        out += [("%.6g" % value).encode("ascii"), piece]
    return b"".join(out)


def write_power_map_csv(map_db: np.ndarray, path) -> None:
    """Plain-text CSV of a dB power map, one row per doppler bin.

    Each value is its '%.6g' text, ',' between values and '\\n' after each
    row: byte for byte what np.savetxt(path, np.atleast_2d(map_db),
    fmt="%.6g", delimiter=",") writes. The map is encoded
    ``_CSV_BLOCK_ROWS`` rows at a time by ``_encode_csv_rows``, which
    formats with numpy and leaves to Python's '%.6g' only the cells whose
    rounding it cannot decide exactly (none on a typical dB map).
    """
    arr = np.atleast_2d(np.asarray(map_db, dtype=np.float64))
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-d or 2-d map, got {arr.ndim}-d")
    with open(path, "wb") as f:
        for start in range(0, arr.shape[0], _CSV_BLOCK_ROWS):
            f.write(_encode_csv_rows(arr[start:start + _CSV_BLOCK_ROWS]))


def write_power_map_pgm(map_db: np.ndarray, path) -> None:
    """16-bit binary PGM of a dB power map, linearly rescaled to 0..65535."""
    arr = np.atleast_2d(np.asarray(map_db, dtype=np.float64))
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        # (arr - lo) / (hi - lo) * 65535, rounded, in one array.
        scaled = np.subtract(arr, lo)
        scaled /= hi - lo
        scaled *= 65535.0
        scaled = np.round(scaled, out=scaled).astype(">u2")
    else:
        scaled = np.zeros(arr.shape, dtype=">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii"))
        f.write(scaled.tobytes())
