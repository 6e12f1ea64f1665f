"""Seeded inputs for the benchmark workloads.

From ``(workload, seed)`` this module writes what the program is given: the
pipeline JSON, the scene JSON, and the ground-truth table the outputs are
checked against. The program never sees the seed itself.

Every scene uses the C0 radar of the test suite (2 TX, 4 RX, 128 chirps per
TX, 256 samples; 1 MiB per frame on the wire) with noise power 1000.

Target layout: each target sits on its own Doppler row, at least 3 rows from
any other, and on its own range bin, at least 5 bins from any other, so that
CA-CFAR's guard and training cells never hide one target behind another.
True positions are within a quarter bin of a bin centre, so the nearest bin
is the only answer inside the half-bin tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C0 = {
    "num_tx": 2,
    "num_rx": 4,
    "chirps_per_frame_per_tx": 128,
    "samples_per_chirp": 256,
    "sample_rate_hz": 10e6,
    "chirp_slope_hz_per_s": 3.0e13,
    "start_freq_hz": 77e9,
    "chirp_period_s": 60e-6,
    "rx_spacing_wavelengths": 0.5,
    "tx_spacing_wavelengths": 2.0,
}
NOISE_POWER = 1000.0
SPEED_OF_LIGHT = 299_792_458.0
FRAME_BYTES = (
    C0["chirps_per_frame_per_tx"] * C0["num_tx"] * C0["num_rx"] * C0["samples_per_chirp"] * 4
)
RANGE_RES_M = SPEED_OF_LIGHT * C0["sample_rate_hz"] / (
    2.0 * C0["chirp_slope_hz_per_s"] * C0["samples_per_chirp"]
)
VELOCITY_RES_M_S = (SPEED_OF_LIGHT / C0["start_freq_hz"]) / (
    2.0 * C0["chirps_per_frame_per_tx"] * C0["num_tx"] * C0["chirp_period_s"]
)

# Usable bins: clear of the zero-range bin, the last range bins and the
# Doppler ambiguity edges.
RANGE_BINS = (8, 248)
DOPPLER_BINS = (-60, 60)
RANGE_GAP, DOPPLER_GAP = 5, 3
SUB_BIN = 0.25
AZIMUTH_DEG = 45.0
AMPLITUDE = (60.0, 200.0)

WORKLOADS = ("sparse-process", "dense-music", "live-udp")
# Frames per simulate/process cycle of the offline workloads, and how many
# times each cycle's capture is processed. Short cycles spread the samples
# over the whole run, so its totals average over the machine's changes of
# speed; repeats give process a larger share of a dense-music run, where
# simulate is slow.
CYCLE_FRAMES = {"sparse-process": 8, "dense-music": 4}
PROCESS_REPEATS = {"sparse-process": 2, "dense-music": 4}
# At 10 frames/s listen needs 80-100% of one core on a 2-vCPU VM and falls
# behind whenever the host slows down, so latency is unsteady; 6 frames/s
# leaves headroom for that.
LIVE_FPS = 6.0
# The live scene repeats every LIVE_SIM_CHUNKS * LIVE_CHUNK_FRAMES frames.
LIVE_SIM_CHUNKS = 5
LIVE_CHUNK_FRAMES = 6
LISTEN_WINDOW = 32  # the default of radarkit listen --window
LIVE_LOSS = 0.01
LIVE_MAX_DISPLACEMENT = 8
PAYLOAD_BYTES = 1456


@dataclass(frozen=True)
class Target:
    range_m: float
    velocity_m_s: float
    azimuth_deg: float
    amplitude: float


def rng_for(workload: str, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), *stream])


def pipeline_dict(workload: str, seed: int) -> dict:
    d = {"radar": dict(C0), "seed": seed}
    if workload == "dense-music":
        d.update(aoa_method="music", music_n_sources=None)
    return d


def _spaced(rng, n: int, lo: int, hi: int, gap: int) -> np.ndarray:
    """n sorted integers in [lo, hi) with consecutive differences >= gap."""
    slack = (hi - lo - 1) - gap * (n - 1)
    if slack < 0:
        raise ValueError(f"{n} bins spaced {gap} do not fit [{lo}, {hi})")
    extra = np.sort(rng.integers(0, slack + 1, size=n))
    return lo + gap * np.arange(n) + extra


def _target(rng, range_bin: int, doppler_bin: int) -> Target:
    return Target(
        range_m=(range_bin + rng.uniform(-SUB_BIN, SUB_BIN)) * RANGE_RES_M,
        velocity_m_s=(doppler_bin + rng.uniform(-SUB_BIN, SUB_BIN)) * VELOCITY_RES_M_S,
        azimuth_deg=rng.uniform(-AZIMUTH_DEG, AZIMUTH_DEG),
        amplitude=rng.uniform(*AMPLITUDE),
    )


def dense_frame(rng, n_targets: int = 40) -> list[Target]:
    """40 targets redrawn on every frame, each on its own range and Doppler bin."""
    ranges = _spaced(rng, n_targets, *RANGE_BINS, RANGE_GAP)
    dopplers = rng.permutation(_spaced(rng, n_targets, *DOPPLER_BINS, DOPPLER_GAP))
    return [_target(rng, r, d) for r, d in zip(ranges, dopplers)]


def sparse_frames(rng, n_frames: int, first_frame: int = 0) -> list[list[Target]]:
    """3 targets whose range bins drift by one bin per frame, wrapping in a band.

    All three drift together, so their cyclic spacing on the range band, and
    with it the isolation, is the same on every frame.
    """
    lo, hi = RANGE_BINS
    span = hi - lo
    base = _spaced(rng, 3, 0, span - RANGE_GAP, RANGE_GAP)
    dopplers = rng.permutation(_spaced(rng, 3, *DOPPLER_BINS, 20))
    direction = 1 if rng.random() < 0.5 else -1
    kin = [
        (rng.uniform(-SUB_BIN, SUB_BIN), rng.uniform(-SUB_BIN, SUB_BIN),
         rng.uniform(-AZIMUTH_DEG, AZIMUTH_DEG), rng.uniform(*AMPLITUDE))
        for _ in range(3)
    ]
    frames = []
    for f in range(first_frame, first_frame + n_frames):
        targets = []
        for b, d, (dr, dv, az, amp) in zip(base, dopplers, kin):
            r = lo + (int(b) + direction * f) % span
            targets.append(Target(
                range_m=(r + dr) * RANGE_RES_M, velocity_m_s=(d + dv) * VELOCITY_RES_M_S,
                azimuth_deg=az, amplitude=amp,
            ))
        frames.append(targets)
    return frames


def scene_frames(workload: str, seed: int, cycle: int, n_frames: int) -> list[list[Target]]:
    """Ground truth of ``n_frames`` frames of one cycle of ``workload``."""
    if workload == "dense-music":
        rng = rng_for(workload, seed, cycle)
        return [dense_frame(rng) for _ in range(n_frames)]
    # The sparse scene is one continuous drift; cycles take consecutive frames.
    # live-udp streams the same scene.
    return sparse_frames(rng_for("sparse-process", seed), n_frames, first_frame=cycle * n_frames)


def scene_dict(frames: list[list[Target]], noise_seed: int) -> dict:
    return {
        "noise_power": NOISE_POWER,
        "seed": noise_seed,
        "n_frames": len(frames),
        "frames": [
            {
                "frame": i,
                "targets": [
                    {
                        "range_m": t.range_m,
                        "velocity_m_s": t.velocity_m_s,
                        "azimuth_deg": t.azimuth_deg,
                        "amplitude": t.amplitude,
                    }
                    for t in targets
                ],
            }
            for i, targets in enumerate(frames)
        ],
    }


def write_cycle_inputs(workload: str, seed: int, cycle: int, n_frames: int, work: Path):
    """Write pipeline.json and scene_<cycle>.json; return (paths, ground truth)."""
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "pipeline.json"
    config_path.write_text(json.dumps(pipeline_dict(workload, seed)), encoding="utf-8")
    frames = scene_frames(workload, seed, cycle, n_frames)
    noise_seed = int(rng_for(workload, seed, cycle, 1).integers(0, 2**31))
    scene_path = work / f"scene_{cycle}.json"
    scene_path.write_text(json.dumps(scene_dict(frames, noise_seed)), encoding="utf-8")
    return config_path, scene_path, frames


def live_plan(seed: int, n_frames: int):
    """Send order, withheld packets and pad frames of the live-udp stream.

    The stream carries ``n_frames`` measured frames and pad frames after
    them, so the last measured frame can complete. A seeded 1% of the
    packets that carry bytes of measured frames are withheld; pad frames lose
    nothing, so every withheld packet is counted before the last measured
    frame completes. The send order sorts seq + U[0, D + 1) for
    D = LIVE_MAX_DISPLACEMENT, so two packets swap only when their seqs differ
    by at most D, and no packet moves more than D places.

    ``radarkit listen`` gives up on a missing packet only once ``--window``
    more packets have arrived than its seq, and it counts arrivals, not seqs:
    each packet lost earlier in the stream delays the give-up by one more
    arrival. The pad covers that delay for the last measured frame.

    Returns (order, withheld, pad_frames): ``order`` lists packet seqs in
    send order; ``withheld`` is a sorted array of seqs that are never sent.
    """
    rng = rng_for("live-udp", seed, 2)
    measured_packets = math.ceil(n_frames * FRAME_BYTES / PAYLOAD_BYTES)
    n_lost = round(LIVE_LOSS * measured_packets)
    late_packets = n_lost + LISTEN_WINDOW + LIVE_MAX_DISPLACEMENT
    pad_frames = 1 + math.ceil(late_packets * PAYLOAD_BYTES / FRAME_BYTES)
    n_packets = math.ceil((n_frames + pad_frames) * FRAME_BYTES / PAYLOAD_BYTES)
    withheld = np.sort(rng.choice(measured_packets, size=n_lost, replace=False))
    keys = np.arange(n_packets) + rng.uniform(0.0, LIVE_MAX_DISPLACEMENT + 1, n_packets)
    order = np.argsort(keys, kind="stable")
    return order, withheld, pad_frames
