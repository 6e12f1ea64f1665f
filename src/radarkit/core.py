"""Radar session configuration, derived parameters, the per-frame data cube,
and the strict JSON codec for every config dataclass.

Everything downstream (simulator, capture ingest, range-Doppler processing,
angle estimation, detection) shares the types defined here. All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import types
import typing
from dataclasses import MISSING, dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
_INT64_MAX = 2**63 - 1


class RadarError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RadarError, ValueError):
    """A configuration constraint is violated; message names the field."""


@dataclass(frozen=True)
class RadarConfig:
    """Full chirp/frame/antenna parameterization of one capture session.

    Construction runs ``validate_config``, so no consumer re-checks one.

    Attributes:
        num_tx: physical transmit antennas (M).
        num_rx: physical receive antennas (N).
        chirps_per_frame_per_tx: chirps each TX fires per frame (N_c).
        samples_per_chirp: complex baseband samples per chirp (N_s).
        sample_rate_hz: ADC complex sample rate (f_s).
        chirp_slope_hz_per_s: chirp frequency slope (S).
        start_freq_hz: carrier frequency at chirp start (f_c).
        chirp_period_s: one TX firing, ramp plus idle (T_c).
        rx_spacing_wavelengths: physical RX line-array spacing, in wavelengths.
        tx_spacing_wavelengths: TX spacing in wavelengths. Defaults to
            num_rx * rx_spacing so TDM yields a filled M*N virtual line.
    """

    num_tx: int
    num_rx: int
    chirps_per_frame_per_tx: int
    samples_per_chirp: int
    sample_rate_hz: float
    chirp_slope_hz_per_s: float
    start_freq_hz: float
    chirp_period_s: float
    rx_spacing_wavelengths: float = 0.5
    tx_spacing_wavelengths: float | None = None

    def __post_init__(self):
        if self.tx_spacing_wavelengths is None:
            object.__setattr__(
                self, "tx_spacing_wavelengths",
                self.num_rx * self.rx_spacing_wavelengths,
            )
        validate_config(self)

    @property
    def chirps_per_frame(self) -> int:
        """Total chirps per frame across all transmitters (N_c * M)."""
        return self.chirps_per_frame_per_tx * self.num_tx


def validate_config(cfg: RadarConfig) -> RadarConfig:
    """Check every configuration invariant; return the config unchanged.

    Raises:
        ConfigError: naming the first violated constraint.
    """
    counts = [
        ("num_tx", cfg.num_tx, 1),
        ("num_rx", cfg.num_rx, 1),
        ("chirps_per_frame_per_tx", cfg.chirps_per_frame_per_tx, 1),
        ("samples_per_chirp", cfg.samples_per_chirp, 2),
    ]
    frame_bytes = 4  # int16 I and Q per sample
    for name, value, minimum in counts:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        frame_bytes *= int(value)
        if frame_bytes > _INT64_MAX:
            raise ConfigError(
                f"{name} must keep the frame size (num_tx * chirps_per_frame_per_tx"
                f" * num_rx * samples_per_chirp * 4 bytes) within int64, got {value}"
            )
    # ``far`` is the farthest virtual element: TX t, RX r sits at
    # t * tx_spacing + r * rx_spacing wavelengths.
    positives = [
        ("sample_rate_hz", cfg.sample_rate_hz, 0),
        ("chirp_slope_hz_per_s", cfg.chirp_slope_hz_per_s, 0),
        ("start_freq_hz", cfg.start_freq_hz, 0),
        ("chirp_period_s", cfg.chirp_period_s, 0),
        ("rx_spacing_wavelengths", cfg.rx_spacing_wavelengths, cfg.num_rx - 1),
        ("tx_spacing_wavelengths", cfg.tx_spacing_wavelengths, cfg.num_tx - 1),
    ]
    far = 0.0
    for name, value, count in positives:
        try:
            finite = isinstance(value, (int, float, np.floating)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if value <= 0:
            raise ConfigError(f"{name} must be > 0, got {value}")
        far += count * float(value)
        if not math.isfinite(far):
            raise ConfigError(
                f"{name} must place every virtual element at a finite position, "
                f"got {value!r}"
            )
    # Sampling must not outrun the ramp: the swept bandwidth covered while
    # sampling (S * N_s / f_s) cannot exceed what the chirp period allows.
    sampled_bw = cfg.chirp_slope_hz_per_s * cfg.samples_per_chirp / cfg.sample_rate_hz
    ramp_bw = cfg.chirp_slope_hz_per_s * cfg.chirp_period_s
    if sampled_bw > ramp_bw:
        raise ConfigError(
            "samples_per_chirp / sample_rate_hz exceeds chirp_period_s: "
            f"sampling window {cfg.samples_per_chirp / cfg.sample_rate_hz:.3e} s "
            f"does not fit the {cfg.chirp_period_s:.3e} s chirp"
        )
    return cfg


@dataclass(frozen=True)
class DerivedParams:
    """Resolutions and ambiguity limits implied by a RadarConfig."""

    wavelength_m: float
    range_resolution_m: float
    max_range_m: float
    velocity_resolution_m_s: float
    max_unambiguous_velocity_m_s: float
    angle_resolution_deg_broadside: float
    num_virtual_rx: int


def derived_params(cfg: RadarConfig) -> DerivedParams:
    """Compute the standard complex-baseband FMCW relations for ``cfg``.

    With c the exact speed of light, M transmitters, N receivers, N_c chirps
    per TX, N_s samples, sample rate f_s, slope S, carrier f_c and chirp
    period T_c:

        wavelength            = c / f_c
        range resolution      = c * f_s / (2 * S * N_s)
        max range             = c * f_s / (2 * S)
        velocity resolution   = wavelength / (2 * N_c * M * T_c)
        max unambig. velocity = wavelength / (4 * M * T_c)

    TDM-MIMO divides the unambiguous velocity by M because each TX repeats
    only every M * T_c. Broadside angle resolution is the beamwidth of the
    M*N-element virtual aperture, 1 / (M * N * rx_spacing) radians.
    """
    lam = SPEED_OF_LIGHT / cfg.start_freq_hz
    n_virtual = cfg.num_tx * cfg.num_rx
    tx_repeat_s = cfg.num_tx * cfg.chirp_period_s
    return DerivedParams(
        wavelength_m=lam,
        range_resolution_m=SPEED_OF_LIGHT * cfg.sample_rate_hz
        / (2.0 * cfg.chirp_slope_hz_per_s * cfg.samples_per_chirp),
        max_range_m=SPEED_OF_LIGHT * cfg.sample_rate_hz
        / (2.0 * cfg.chirp_slope_hz_per_s),
        velocity_resolution_m_s=lam / (2.0 * cfg.chirps_per_frame_per_tx * tx_repeat_s),
        max_unambiguous_velocity_m_s=lam / (4.0 * cfg.num_tx * cfg.chirp_period_s),
        angle_resolution_deg_broadside=math.degrees(
            1.0 / (n_virtual * cfg.rx_spacing_wavelengths)
        ),
        num_virtual_rx=n_virtual,
    )


def _check_bins(bins, lo: int, hi: int, axis: str) -> None:
    b = np.asarray(bins)
    bad = b[(b < lo) | (b >= hi)]
    if bad.size:
        raise IndexError(f"{axis} bin {bad.flat[0]} outside [{lo}, {hi})")


def bin_to_range(bin_index, cfg: RadarConfig):
    """Convert a range-FFT bin index to meters (bin * range resolution).

    ``bin_index`` may also be an integer array, converted element-wise.
    """
    _check_bins(bin_index, 0, cfg.samples_per_chirp, "range")
    return bin_index * derived_params(cfg).range_resolution_m


def bin_to_velocity(centered_bin, cfg: RadarConfig):
    """Convert a centered Doppler bin to m/s (centered_bin * velocity resolution).

    Centered bin 0 is zero velocity; valid bins are -N_c/2 .. N_c/2 - 1.
    ``centered_bin`` may also be an integer array, converted element-wise.
    """
    half = cfg.chirps_per_frame_per_tx // 2
    _check_bins(centered_bin, -half, cfg.chirps_per_frame_per_tx - half, "doppler")
    return centered_bin * derived_params(cfg).velocity_resolution_m_s


def readonly_view(a, dtype=None) -> np.ndarray:
    """A read-only, C-contiguous view of ``a`` (of a copy only if its layout or
    ``dtype`` needs one); the array passed in keeps its own flags."""
    view = np.ascontiguousarray(a, dtype=dtype).view()
    view.setflags(write=False)
    return view


WIRE_DTYPE = np.dtype("<i2")  # one I or Q sample of the capture byte layout


@dataclass(frozen=True, eq=False)
class DataCube:
    """One frame of complex baseband samples, shape (chirp, rx, sample).

    The chirp axis is in transmission order (TX0 chirp0, TX1 chirp0, ...,
    TX0 chirp1, ...): global chirp q was fired by TX q mod M.

    ``data`` may be given in either of two forms:

    - wire pairs: a ``WIRE_DTYPE`` (int16) array of shape (chirp, rx,
      sample, 2) holding I then Q, as ``capture.deinterleave`` passes a
      frame's bytes. They are held as a read-only view, with no copy and no
      NaN/Inf scan, since int16 holds neither.
    - complex samples of shape (chirp, rx, sample), as the simulator makes
      them. They are held as a read-only complex128 view (of a copy only if
      their layout or dtype needs one) once checked finite.

    The array passed in keeps its own flags, and writing to it later changes
    the cube's samples. ``iq`` is the samples' real-pair view, shape
    (chirp, rx, sample, 2), int16 or float64, which the stages read.
    ``data`` is the read-only complex128 cube; for wire pairs it is decoded
    on first access and kept.
    """

    data: np.ndarray = field(repr=False)
    frame_index: int
    config: RadarConfig = field(repr=False)
    iq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.frame_index < 0:
            raise ConfigError(f"frame_index must be >= 0, got {self.frame_index}")
        expected = (
            self.config.chirps_per_frame,
            self.config.num_rx,
            self.config.samples_per_chirp,
        )
        arr = np.asarray(self.data)
        if arr.dtype == WIRE_DTYPE and arr.shape == (*expected, 2):
            object.__setattr__(self, "iq", readonly_view(arr))
            object.__delattr__(self, "data")  # decoded by __getattr__ if asked for
            return
        if arr.shape != expected:
            raise ConfigError(
                f"data shape {arr.shape} does not match config shape {expected}"
            )
        arr = readonly_view(arr, np.complex128)
        iq = arr.view(np.float64).reshape(*expected, 2)
        if not np.isfinite(iq).all():
            raise ConfigError("data contains NaN or Inf samples")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "iq", iq)

    def __getattr__(self, name):
        # Reached only for attributes not set: ``data`` of wire pairs not yet decoded.
        if name != "data" or "iq" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        data = self.iq.astype(np.float64).view(np.complex128).reshape(self.shape)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        return data

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.iq.shape[:-1]


def _json_fields(cls) -> dict[str, dataclasses.Field]:
    """JSON key -> field; ``metadata={"json": "key"}`` renames a field."""
    return {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}


@functools.cache
def _type_hints(cls) -> dict:
    """``typing.get_type_hints`` of a dataclass, resolved once per class."""
    return typing.get_type_hints(cls)


def _at(key: str, message: str) -> str:
    return f"{key}: {message}" if key else message


def encode_jsonable(obj):
    """Inverse of ``decode_jsonable``: dataclasses to dicts, enums to values."""
    if dataclasses.is_dataclass(obj):
        fields = _json_fields(obj).items()
        return {k: encode_jsonable(getattr(obj, f.name)) for k, f in fields}
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def decode_jsonable(tp, value, key: str = ""):
    """Decode parsed JSON ``value`` as type ``tp``, a config dataclass, strictly.

    The dataclass fields and their type hints are the schema. Rejected:
    a non-object, unknown keys, missing keys of fields without a default,
    values of the wrong JSON type (a bool is not a number; an int is taken
    as a float; ``Optional`` allows null) and enum names matching no member
    (case-insensitively). Unset keys take the field defaults, nested ones
    those of the field's default object (``doppler_cfar`` stays circular).
    A construction error (a ``RadarConfig`` failing ``validate_config``) is
    re-raised under the dataclass's key. ``key`` prefixes every message.

    Raises:
        ConfigError: naming the dotted key, e.g. ``range_cfar.guard_cells``.
    """
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return decode_jsonable(inner, value, key)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(_at(key, f"expected a list, got {value!r}"))
        item = typing.get_args(tp)[0]
        return tuple(decode_jsonable(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    if issubclass(tp, enum.Enum):
        members = {m.value: m for m in tp}
        if isinstance(value, str) and value.lower() in members:
            return members[value.lower()]
        raise ConfigError(_at(key, f"expected one of {list(members)}, got {value!r}"))
    if not dataclasses.is_dataclass(tp):
        accepted = (int, float) if tp is float else tp
        if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
            raise ConfigError(_at(key, f"expected {tp.__name__}, got {value!r}"))
        return value
    if not isinstance(value, dict):
        raise ConfigError(_at(key, f"expected an object, got {value!r}"))
    fields = _json_fields(tp)
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(_at(key, f"unknown keys {sorted(unknown)}"))
    hints = _type_hints(tp)
    kwargs = {}
    for k, v in value.items():
        f = fields[k]
        child = f"{key}.{k}" if key else k
        if dataclasses.is_dataclass(f.default) and isinstance(v, dict):
            v = encode_jsonable(f.default) | v  # unset keys from the default object
        kwargs[f.name] = decode_jsonable(hints[f.name], v, child)
    required = {k for k, f in fields.items() if f.default is f.default_factory is MISSING}
    if required - set(value):
        raise ConfigError(_at(key, f"missing keys {sorted(required - set(value))}"))
    try:
        return tp(**kwargs)
    except (RadarError, ValueError) as e:
        raise ConfigError(_at(key, str(e))) from e
