"""Physics-faithful FMCW scene simulator: point targets -> ADC data cubes.

Serves as the ground-truth oracle for the processing pipeline. For a target
at range R, radial velocity v and azimuth theta with amplitude A, sample k of
global chirp q (fired by TX t = q mod M) at physical receiver r is

    A * exp(j 2 pi [ f_b k / f_s  +  f_d q T_c  +  (t d_tx + r d_rx) sin(theta) ])

with beat frequency f_b = 2 S R / c, Doppler shift f_d = 2 v f_c / c and
antenna spacings d_tx, d_rx in wavelengths. Targets sum linearly; noise is
complex circular Gaussian. Range migration within a frame and amplitude
falloff with range are deliberately ignored so every expectation stays
analytically checkable.

Synthesis is separable: the phase is a fast-time term ``f_b k / f_s`` plus a
slow-time x spatial term ``f_d q T_c + (t d_tx + r d_rx) sin(theta)``, so each
target's samples are the outer product of a (chirps * rx) phasor and an
N_s phasor, and the whole frame is one matrix product

    (A * exp(j 2 pi slow_spatial))  @  exp(j 2 pi fast)
     (chirps * rx, targets)           (targets, N_s)

reshaped to the cube. T targets cost T (chirps * rx + N_s) complex
exponentials instead of T * chirps * rx * N_s. The empty scene is an exact
zero cube.

Noise determinism: the generator is numpy's PCG64 (``np.random.default_rng``)
seeded per frame with seed XOR frame_index, so frames can be synthesized in
parallel and still reproduce bit-identically. The real parts are drawn
first, then the imaginary parts, each scaled by sqrt(noise_power / 2).

``stream_capture`` renders a capture frame by frame through buffers it
allocates once, quantized to the capture file's int16 wire pairs, so
``radarkit simulate`` holds one frame however long the capture is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capture import (
    DEFAULT_PAYLOAD_BYTES,
    MAX_PAYLOAD_BYTES,
    CapturePacket,
    quantize,
    serialize_cube,
)
from .core import (
    SPEED_OF_LIGHT,
    WIRE_DTYPE,
    ConfigError,
    DataCube,
    RadarConfig,
    RadarError,
    derived_params,
)

_SEED_MASK = (1 << 64) - 1


class SimError(RadarError):
    """A scene parameter is out of range for the config it is simulated against."""


def _require_finite(name: str, value) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise SimError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PointTarget:
    """One ideal point scatterer with constant amplitude."""

    range_m: float
    radial_velocity_m_s: float = field(default=0.0, metadata={"json": "velocity_m_s"})
    azimuth_deg: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.range_m <= 0:
            raise SimError(f"range_m must be > 0, got {self.range_m}")
        if not -90.0 < self.azimuth_deg < 90.0:
            raise SimError(f"azimuth_deg must be in (-90, 90), got {self.azimuth_deg}")
        if self.amplitude <= 0:
            raise SimError(f"amplitude must be > 0, got {self.amplitude}")


@dataclass(frozen=True)
class NoiseSpec:
    """Complex white Gaussian noise of the given per-sample variance."""

    noise_power: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_finite("noise_power", self.noise_power)
        if self.noise_power < 0:
            raise SimError(f"noise_power must be >= 0, got {self.noise_power}")


NO_NOISE = NoiseSpec(0.0, 0)


def _check_limits(cfg: RadarConfig, targets: Iterable[PointTarget]):
    dp = derived_params(cfg)
    for tgt in targets:
        if tgt.range_m >= dp.max_range_m:
            raise SimError(
                f"target range {tgt.range_m} m >= max range {dp.max_range_m:.3f} m"
            )
        if abs(tgt.radial_velocity_m_s) >= dp.max_unambiguous_velocity_m_s:
            raise SimError(
                f"target velocity {tgt.radial_velocity_m_s} m/s exceeds "
                f"+-{dp.max_unambiguous_velocity_m_s:.3f} m/s"
            )


def synthesize_frame(
    cfg: RadarConfig,
    targets: Sequence[PointTarget],
    noise: NoiseSpec = NO_NOISE,
    frame_index: int = 0,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> DataCube:
    """Synthesize one frame of beat-signal samples for the given targets.

    ``out``, a C-contiguous complex128 array of the cube's shape, receives
    the samples, and the cube is a view of it; ``work``, a C-contiguous
    float64 array of that shape, receives each noise draw. Without them the
    frame gets new arrays.

    Raises:
        SimError: a target outside the config's limits, or samples that
            overflow float64 (the message names the frame).
    """
    _check_limits(cfg, targets)
    n_chirps = cfg.chirps_per_frame
    shape = (n_chirps, cfg.num_rx, cfg.samples_per_chirp)
    k = np.arange(cfg.samples_per_chirp)
    q = np.arange(n_chirps)
    r = np.arange(cfg.num_rx)
    # (chirps, rx): position of each chirp's TX plus each RX, in wavelengths.
    antenna = (
        (q % cfg.num_tx)[:, np.newaxis] * float(cfg.tx_spacing_wavelengths)
        + r[np.newaxis, :] * float(cfg.rx_spacing_wavelengths)
    )

    range_m, velocity, azimuth_deg, amplitude = np.array(
        [(t.range_m, t.radial_velocity_m_s, t.azimuth_deg, t.amplitude) for t in targets],
        dtype=np.float64,
    ).reshape(-1, 4).T
    n_targets = len(range_m)
    f_beat = 2.0 * cfg.chirp_slope_hz_per_s * range_m / SPEED_OF_LIGHT
    f_doppler = 2.0 * velocity * cfg.start_freq_hz / SPEED_OF_LIGHT
    sin_az = np.sin(np.radians(azimuth_deg))
    # (targets, samples): the fast-time phasor of each target.
    fast = np.exp(2j * np.pi * (f_beat[:, np.newaxis] * k / cfg.sample_rate_hz))
    # (chirps, rx, targets): amplitude times the slow-time x spatial phasor.
    slow = f_doppler * q[:, np.newaxis] * cfg.chirp_period_s
    weights = amplitude * np.exp(
        2j * np.pi * (slow[:, np.newaxis, :] + antenna[:, :, np.newaxis] * sin_az)
    )
    if out is None:
        out = np.empty(shape, np.complex128)
    # Finite targets can still sum past the float64 range; the DataCube's
    # NaN/Inf scan below checks that once, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(weights.reshape(n_chirps * cfg.num_rx, n_targets), fast,
                  out=out.reshape(n_chirps * cfg.num_rx, cfg.samples_per_chirp))
        if noise.noise_power > 0:
            if work is None:
                work = np.empty(shape)
            rng = np.random.default_rng((noise.seed ^ frame_index) & _SEED_MASK)
            sigma = math.sqrt(noise.noise_power / 2.0)
            for part in (out.real, out.imag):
                rng.standard_normal(out=work)
                work *= sigma
                part += work
    try:
        return DataCube(data=out, frame_index=frame_index, config=cfg)
    except ConfigError:  # rescanned only on failure, to tell an overflow from other errors
        if np.isfinite(out.view(np.float64)).all():
            raise
        raise SimError(f"frame {frame_index}: the targets' samples overflow float64") from None


def _frames_by_index(
    scene: Sequence[tuple[int, Sequence[PointTarget]]], n_frames: int
) -> dict[int, Sequence[PointTarget]]:
    if n_frames < 1:
        raise SimError(f"n_frames must be >= 1, got {n_frames}")
    by_frame: dict[int, Sequence[PointTarget]] = {}
    for frame_index, targets in scene:
        if not 0 <= frame_index < n_frames:
            raise SimError(f"scene frame {frame_index} outside [0, {n_frames})")
        if frame_index in by_frame:
            raise SimError(f"scene lists frame {frame_index} twice")
        by_frame[frame_index] = targets
    return by_frame


def synthesize_capture(
    cfg: RadarConfig,
    scene: Sequence[tuple[int, Sequence[PointTarget]]],
    noise: NoiseSpec = NO_NOISE,
    n_frames: int = 1,
) -> list[DataCube]:
    """Synthesize a capture of ``n_frames`` frames.

    ``scene`` lists (frame_index, targets) entries; frames without an entry
    are empty. Target kinematics across frames are the scene author's job:
    the simulator renders each frame's target list as given.
    """
    by_frame = _frames_by_index(scene, n_frames)
    return [
        synthesize_frame(cfg, by_frame.get(i, ()), noise, frame_index=i)
        for i in range(n_frames)
    ]


def stream_capture(
    cfg: RadarConfig,
    scene: Sequence[tuple[int, Sequence[PointTarget]]],
    noise: NoiseSpec = NO_NOISE,
    n_frames: int = 1,
) -> Iterator[DataCube]:
    """``synthesize_capture``'s frames one at a time, as the int16 wire pairs
    a capture file holds (``serialize_cube``'s quantization).

    Each frame is made when it is drawn, in one set of buffers allocated
    for the run, so a cube is valid only until the next is drawn.
    """
    by_frame = _frames_by_index(scene, n_frames)
    shape = (cfg.chirps_per_frame, cfg.num_rx, cfg.samples_per_chirp)
    samples = np.empty(shape, np.complex128)
    draw = np.empty(shape)
    wire = np.empty((*shape, 2), WIRE_DTYPE)
    for i in range(n_frames):
        synthesize_frame(cfg, by_frame.get(i, ()), noise, i, out=samples, work=draw)
        quantize(samples.view(np.float64).reshape(wire.shape), out=wire)
        yield DataCube(wire, i, cfg)


def packetize(
    cubes: Iterable[DataCube], payload_bytes: int = DEFAULT_PAYLOAD_BYTES
) -> list[CapturePacket]:
    """Serialize cubes into the capture byte layout, split into sequenced packets.

    Sequence numbers are consecutive from 0 and byte offsets cumulative; the
    last packet may be short. ``payload_bytes`` must be a positive multiple
    of 4 so packets hold whole int16 I/Q pairs, and at most
    ``MAX_PAYLOAD_BYTES`` so each packet fits one UDP datagram.
    """
    if not 0 < payload_bytes <= MAX_PAYLOAD_BYTES or payload_bytes % 4 != 0:
        raise ValueError(
            f"payload_bytes must be a positive multiple of 4 up to "
            f"{MAX_PAYLOAD_BYTES}, got {payload_bytes}"
        )
    stream = b"".join(serialize_cube(cube) for cube in cubes)
    return [
        CapturePacket(seq=seq, byte_offset=start, payload=stream[start:start + payload_bytes])
        for seq, start in enumerate(range(0, len(stream), payload_bytes))
    ]
