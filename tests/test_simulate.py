import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarkit import (
    NoiseSpec,
    PointTarget,
    SimError,
    WindowKind,
    deinterleave,
    packetize,
    range_processing,
    reassemble,
    synthesize_capture,
    synthesize_frame,
)
from radarkit.cli import main
from radarkit.core import SPEED_OF_LIGHT, DataCube, derived_params, encode_jsonable

from conftest import C0, random_int_cube_data, small_config

NO_NOISE = NoiseSpec(0.0, 0)


def test_empty_scene_is_all_zero(c0):
    cube = synthesize_frame(c0, [], NO_NOISE)
    assert not cube.data.any()


def test_unit_amplitude_target_has_unit_magnitude_samples(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0, 1.0, 15.0, 1.0)], NO_NOISE)
    assert np.allclose(np.abs(cube.data), 1.0, atol=1e-12)


def test_linearity_of_target_superposition(c0):
    a = PointTarget(10.0, 2.0, 10.0, 1.0)
    b = PointTarget(25.0, -3.0, -30.0, 2.0)
    both = synthesize_frame(c0, [a, b], NO_NOISE).data
    separate = (
        synthesize_frame(c0, [a], NO_NOISE).data
        + synthesize_frame(c0, [b], NO_NOISE).data
    )
    assert np.allclose(both, separate, rtol=1e-12, atol=1e-12)


def test_range_fft_peaks_at_bin_51_for_10m_target(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0)], NO_NOISE)
    spectrum = range_processing(cube, WindowKind.RECTANGULAR)
    peak_bins = np.argmax(np.abs(spectrum), axis=-1)
    assert (peak_bins == 51).all()


def test_no_mirrored_peak_in_complex_baseband(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0)], NO_NOISE)
    profile = np.abs(range_processing(cube, WindowKind.RECTANGULAR)[0, 0])
    assert profile[256 - 51] < 0.02 * profile[51]


def test_adjacent_rx_phase_ratio_at_30_degrees(c0):
    # Half-wavelength spacing and sin(30 deg) = 0.5 give a pi/2 step.
    cube = synthesize_frame(c0, [PointTarget(10.0, 0.0, 30.0)], NO_NOISE)
    ratio = cube.data[:, 1, :] / cube.data[:, 0, :]
    assert np.allclose(ratio, np.exp(1j * np.pi / 2), atol=1e-12)


def test_noise_is_seed_deterministic(c0):
    noise = NoiseSpec(2.0, seed=1234)
    a = synthesize_frame(c0, [PointTarget(5.0)], noise, frame_index=3)
    b = synthesize_frame(c0, [PointTarget(5.0)], noise, frame_index=3)
    assert np.array_equal(a.data, b.data)
    c = synthesize_frame(c0, [PointTarget(5.0)], noise, frame_index=4)
    assert not np.array_equal(a.data, c.data)


def test_noise_power_matches_spec():
    cfg = small_config(chirps=64, samples=64)
    cube = synthesize_frame(cfg, [], NoiseSpec(4.0, seed=9))
    measured = np.mean(np.abs(cube.data) ** 2)
    assert measured == pytest.approx(4.0, rel=0.05)


def test_static_scene_frames_identical(c0):
    targets = [PointTarget(12.0, 0.0, 5.0)]
    cubes = synthesize_capture(c0, [(i, targets) for i in range(3)], NO_NOISE, 3)
    assert len(cubes) == 3
    assert np.array_equal(cubes[0].data, cubes[1].data)
    assert np.array_equal(cubes[0].data, cubes[2].data)
    assert [c.frame_index for c in cubes] == [0, 1, 2]


def test_capture_missing_frames_are_empty(c0):
    cubes = synthesize_capture(c0, [(1, [PointTarget(9.0)])], NO_NOISE, 3)
    assert not cubes[0].data.any()
    assert cubes[1].data.any()
    assert not cubes[2].data.any()


@pytest.mark.parametrize(
    "target",
    [
        dict(range_m=60.0),                      # beyond max range (~50 m)
        dict(range_m=10.0, radial_velocity_m_s=9.0),   # beyond +-8.11 m/s
        dict(range_m=10.0, radial_velocity_m_s=-9.0),
    ],
)
def test_targets_outside_ambiguity_limits_rejected(c0, target):
    with pytest.raises(SimError):
        synthesize_frame(c0, [PointTarget(**target)], NO_NOISE)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(range_m=0.0),
        dict(range_m=-1.0),
        dict(range_m=10.0, azimuth_deg=90.0),
        dict(range_m=10.0, azimuth_deg=-95.0),
        dict(range_m=10.0, amplitude=0.0),
    ],
)
def test_bad_target_parameters_rejected(kwargs):
    with pytest.raises(SimError):
        PointTarget(**kwargs)


def test_negative_noise_power_rejected():
    with pytest.raises(SimError):
        NoiseSpec(-0.1, 0)


def test_n_frames_must_be_positive(c0):
    with pytest.raises(SimError):
        synthesize_capture(c0, [], NO_NOISE, 0)


def test_moving_target_kinematics_applied_by_scene(c0):
    # The simulator renders each frame as given; the test supplies per-frame
    # ranges R0 + v * i * T_frame and checks the beat-frequency prediction.
    r0, v = 10.0, 5.0
    frame_period = c0.chirps_per_frame * c0.chirp_period_s
    scene = [
        (i, [PointTarget(r0 + v * i * frame_period)]) for i in range(3)
    ]
    cubes = synthesize_capture(c0, scene, NO_NOISE, 3)
    for i, cube in enumerate(cubes):
        r_i = r0 + v * i * frame_period
        f_beat = 2 * c0.chirp_slope_hz_per_s * r_i / 299_792_458.0
        predicted = round(f_beat / c0.sample_rate_hz * c0.samples_per_chirp)
        profile = np.abs(range_processing(cube, WindowKind.RECTANGULAR)[0, 0])
        assert int(np.argmax(profile)) == predicted


def test_packetize_c0_frame_counts(c0):
    rng = np.random.default_rng(0)
    cube = DataCube(random_int_cube_data(rng, c0), 0, c0)
    packets = packetize([cube], payload_bytes=1456)
    # 256 * 4 * 256 samples * 4 bytes = 1 048 576 bytes -> 721 packets.
    assert len(packets) == 721
    assert len(packets[-1].payload) == 1048576 - 720 * 1456 == 256
    assert [p.seq for p in packets] == list(range(721))
    offsets = np.cumsum([0] + [len(p.payload) for p in packets[:-1]])
    assert [p.byte_offset for p in packets] == offsets.tolist()


def test_packetize_empty_and_bad_payload(c0):
    assert packetize([]) == []
    with pytest.raises(ValueError):
        packetize([], payload_bytes=1455)
    with pytest.raises(ValueError):
        packetize([], payload_bytes=0)


def test_packetize_reassemble_deinterleave_round_trip():
    cfg = small_config(chirps=4, samples=32)
    rng = np.random.default_rng(5)
    cube = DataCube(random_int_cube_data(rng, cfg), 0, cfg)
    packets = packetize([cube], payload_bytes=100)
    stream, report = reassemble(packets, window=4)
    recovered = deinterleave(stream, cfg)
    assert np.array_equal(recovered.data, cube.data)
    assert report.packets_dropped == 0


def _per_target_reference(cfg, targets) -> np.ndarray:
    """The per-target loop the separable product replaced: one phase cube per target."""
    k = np.arange(cfg.samples_per_chirp)
    q = np.arange(cfg.chirps_per_frame)
    tx_of_chirp = q % cfg.num_tx
    r = np.arange(cfg.num_rx)
    data = np.zeros((cfg.chirps_per_frame, cfg.num_rx, cfg.samples_per_chirp), np.complex128)
    for tgt in targets:
        f_beat = 2.0 * cfg.chirp_slope_hz_per_s * tgt.range_m / SPEED_OF_LIGHT
        f_doppler = 2.0 * tgt.radial_velocity_m_s * cfg.start_freq_hz / SPEED_OF_LIGHT
        sin_az = math.sin(math.radians(tgt.azimuth_deg))
        fast = f_beat * k / cfg.sample_rate_hz
        slow = f_doppler * q * cfg.chirp_period_s
        spatial = (
            tx_of_chirp[:, np.newaxis] * cfg.tx_spacing_wavelengths
            + r[np.newaxis, :] * cfg.rx_spacing_wavelengths
        ) * sin_az
        phase = (
            slow[:, np.newaxis, np.newaxis]
            + spatial[:, :, np.newaxis]
            + fast[np.newaxis, np.newaxis, :]
        )
        data += tgt.amplitude * np.exp(2j * np.pi * phase)
    return data


def _assert_matches_reference(cfg, targets):
    got = synthesize_frame(cfg, targets, NO_NOISE).data
    want = _per_target_reference(cfg, targets)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * sum(t.amplitude for t in targets)


@st.composite
def _configs_and_targets(draw):
    cfg = small_config(
        num_tx=draw(st.integers(1, 3)),
        num_rx=draw(st.integers(1, 4)),
        chirps=draw(st.integers(1, 8)),
        samples=draw(st.integers(2, 64)),
        rx_spacing=draw(st.floats(0.25, 2.0)),
    )
    cfg = dataclasses.replace(cfg, tx_spacing_wavelengths=draw(st.floats(0.1, 4.0)))
    dp = derived_params(cfg)
    v_max = dp.max_unambiguous_velocity_m_s
    target = st.builds(
        PointTarget,
        range_m=st.floats(0.0, dp.max_range_m, exclude_min=True, exclude_max=True),
        radial_velocity_m_s=st.floats(-v_max, v_max, exclude_min=True, exclude_max=True),
        azimuth_deg=st.floats(-90.0, 90.0, exclude_min=True, exclude_max=True),
        amplitude=st.floats(1e-3, 1e4),
    )
    return cfg, draw(st.lists(target, max_size=50))


@settings(max_examples=100, deadline=None)
@given(_configs_and_targets())
def test_synthesis_matches_per_target_reference(case):
    _assert_matches_reference(*case)


def _random_targets(cfg, rng, n):
    dp = derived_params(cfg)
    v_max = dp.max_unambiguous_velocity_m_s
    return [
        PointTarget(
            range_m=rng.uniform(0.5, 0.99 * dp.max_range_m),
            radial_velocity_m_s=rng.uniform(-0.99 * v_max, 0.99 * v_max),
            azimuth_deg=rng.uniform(-85.0, 85.0),
            amplitude=rng.uniform(60.0, 1000.0),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("num_tx", [2, 1])
def test_synthesis_matches_reference_on_c0_with_40_targets(num_tx):
    cfg = dataclasses.replace(C0, num_tx=num_tx, tx_spacing_wavelengths=None)
    _assert_matches_reference(cfg, _random_targets(cfg, np.random.default_rng(num_tx), 40))


@pytest.mark.parametrize(
    "azimuth_deg", [math.nextafter(90.0, 0.0), -math.nextafter(90.0, 0.0), 89.99, -89.99]
)
def test_synthesis_matches_reference_near_endfire(c0, azimuth_deg):
    _assert_matches_reference(c0, [PointTarget(17.0, -3.0, azimuth_deg, 800.0)])


# sha256 of the capture file `simulate` writes for _golden_scene(), computed
# with the per-target synthesis loop, before the separable product.
GOLDEN_CAPTURE_SHA256 = "512bc41fb4494cd935897ef8230b4f78cf077e1cbb0eab77daa3d6f313e16295"


def _golden_scene() -> dict:
    rng = np.random.default_rng(2024)
    return {
        "noise_power": 1000.0,
        "seed": 31,
        "frames": [
            {"frame": f, "targets": [
                {"range_m": t.range_m, "velocity_m_s": t.radial_velocity_m_s,
                 "azimuth_deg": t.azimuth_deg, "amplitude": t.amplitude}
                for t in _random_targets(C0, rng, 40)
            ]}
            for f in range(2)
        ],
    }


def test_simulate_capture_matches_golden(tmp_path):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"radar": encode_jsonable(C0)}), encoding="utf-8")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(_golden_scene()), encoding="utf-8")
    capture = tmp_path / "golden.orad"
    assert main(["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
                 "--out", str(capture)]) == 0
    assert hashlib.sha256(capture.read_bytes()).hexdigest() == GOLDEN_CAPTURE_SHA256
