"""Frame-batched angle estimation against the per-detection loop it replaced."""

import dataclasses
import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from radarkit import (
    NoiseSpec,
    PipelineConfig,
    PipelineError,
    PointTarget,
    aoa_fft,
    bartlett,
    capon,
    covariance,
    default_angle_grid,
    derived_params,
    doppler_compensate,
    estimate_source_count,
    music,
    peak_angles,
    process_frame,
    run_pipeline,
    synthesize_frame,
    to_point_cloud,
    virtual_array,
)
from radarkit.aoa import AoaMethod, _fft_axis, estimate_angles
from radarkit.cli import main
from radarkit.detect import cfar_2d, group_peaks
from radarkit.rangedoppler import accumulate_power, doppler_processing, range_processing

from conftest import C0
from test_pipeline import c0_dict

C0_1TX = dataclasses.replace(C0, num_tx=1, tx_spacing_wavelengths=None)
C0_ODD = dataclasses.replace(C0, chirps_per_frame_per_tx=127)
NOISE_POWER = 1000.0


def reference_angles(cfg, rd, detections):
    """The per-detection loop the pipeline ran before batching, from public functions."""
    array = virtual_array(cfg.radar)
    grid = default_angle_grid(cfg.aoa_grid_step_deg)
    compensated = doppler_compensate(rd)
    n_doppler = compensated.num_doppler_bins
    angle_lists = []
    for det in detections:
        row = det.doppler_bin + n_doppler // 2
        if cfg.aoa_method is AoaMethod.FFT:
            snapshot = compensated.data[row, :, det.range_bin]
            spectrum = aoa_fft(snapshot, array, cfg.aoa_fft_bins)
        else:
            snapshots = compensated.data[:, :, det.range_bin]
            loading = cfg.capon_loading if cfg.aoa_method is AoaMethod.CAPON else 0.0
            r = covariance(snapshots, loading=loading)
            if cfg.aoa_method is AoaMethod.BARTLETT:
                spectrum = bartlett(r, array, grid)
            elif cfg.aoa_method is AoaMethod.CAPON:
                spectrum = capon(r, array, grid)
            else:
                n_sources = cfg.music_n_sources
                if n_sources is None:
                    n_sources = min(max(estimate_source_count(r), 1), len(array) - 1)
                spectrum = music(r, array, n_sources, grid)
        angle_lists.append(peak_angles(spectrum, cfg.max_angles_per_detection))
    return angle_lists


def _targets(rng, n):
    """``n`` targets on distinct range bins and Doppler rows 3 apart."""
    rows = rng.permutation(np.arange(-58, 59, 3))[:n]
    return [
        PointTarget(
            range_m=(10 + 5 * i + rng.uniform(-0.25, 0.25)) * 0.1953125,
            radial_velocity_m_s=(row + rng.uniform(-0.25, 0.25)) * 0.12682,
            azimuth_deg=rng.uniform(-60.0, 60.0),
            amplitude=rng.uniform(300.0, 1000.0),
        )
        for i, row in enumerate(rows)
    ]


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(2024)
    return {
        "c0_40_targets": synthesize_frame(C0, _targets(rng, 40), NoiseSpec(NOISE_POWER, 5)),
        "one_tx": synthesize_frame(C0_1TX, _targets(rng, 8), NoiseSpec(NOISE_POWER, 6)),
        "no_detections": synthesize_frame(C0, []),
        "odd_doppler_edges": synthesize_frame(
            C0_ODD, _targets(rng, 8) + _edge_targets(C0_ODD), NoiseSpec(NOISE_POWER, 7)
        ),
    }


def _edge_targets(cfg):
    """One target on each edge Doppler row: centered bins -(N_c // 2) and (N_c - 1) // 2."""
    n = cfg.chirps_per_frame_per_tx
    resolution = derived_params(cfg).velocity_resolution_m_s
    return [
        PointTarget(range_m=(60 + 10 * i) * 0.1953125, radial_velocity_m_s=b * resolution,
                    azimuth_deg=azimuth, amplitude=800.0)
        for i, (b, azimuth) in enumerate([(-(n // 2), -25.0), ((n - 1) // 2, 35.0)])
    ]


METHODS = {
    "fft": dict(aoa_method=AoaMethod.FFT),
    "bartlett": dict(aoa_method=AoaMethod.BARTLETT),
    "capon": dict(aoa_method=AoaMethod.CAPON),
    "music_fixed": dict(aoa_method=AoaMethod.MUSIC, music_n_sources=2),
    "music_auto": dict(aoa_method=AoaMethod.MUSIC),
}


@pytest.mark.parametrize("frame", ["c0_40_targets", "one_tx", "no_detections",
                                   "odd_doppler_edges"])
@pytest.mark.parametrize("max_angles", [1, 2])
@pytest.mark.parametrize("method", list(METHODS))
def test_batched_angles_equal_per_detection_loop(frames, frame, max_angles, method):
    cube = frames[frame]
    cfg = PipelineConfig(
        radar=cube.config, max_angles_per_detection=max_angles, **METHODS[method]
    )
    rd = doppler_processing(range_processing(cube, cfg.range_window), cfg.radar,
                            cfg.doppler_window)
    detections = group_peaks(
        cfar_2d(accumulate_power(rd, cfg.accumulation), cfg.range_cfar, cfg.doppler_cfar),
        cfg.connectivity, doppler_bins=cfg.radar.chirps_per_frame_per_tx,
    )
    assert (len(detections) >= 8) == (frame != "no_detections")
    expected = reference_angles(cfg, rd, detections)
    batched = estimate_angles(
        cfg.aoa_plan, np.fft.ifftshift(rd.data, axes=0), [d.doppler_bin for d in detections],
        [d.range_bin for d in detections], cfg.aoa_method,
        fft_bins=cfg.aoa_fft_bins, music_n_sources=cfg.music_n_sources,
        capon_loading=cfg.capon_loading, max_peaks=max_angles,
    )
    assert batched == expected
    assert process_frame(cfg, cube).point_cloud == to_point_cloud(
        detections, expected, cfg.radar, cube.frame_index
    )


@pytest.mark.parametrize("method", [AoaMethod.BARTLETT, AoaMethod.CAPON, AoaMethod.MUSIC])
def test_grid_methods_hold_the_snapshot_stack_only_until_the_covariances(frames, method):
    # The snapshot stack, (detection, Doppler row, virtual rx) complex, is
    # 624 KiB for 39 detections on C0. Gathered, shifted and compensated in
    # one pass and freed before the grid scan, it and its conjugate in the
    # covariance product are all a grid frame holds beyond an FFT frame's
    # peak; a shifted copy, a compensated copy and a stack kept through the
    # scan made that 2.3 stacks.
    cube = frames["c0_40_targets"]
    peaks = {}
    for m in (AoaMethod.FFT, method):
        cfg = PipelineConfig(radar=C0, aoa_method=m)
        process_frame(cfg, cube)  # warm-up: this thread's buffers, the plan
        tracemalloc.start()
        try:
            result = process_frame(cfg, cube)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    stack = len(result.point_cloud) * C0.chirps_per_frame_per_tx * 8 * 16
    assert peaks[method] - peaks[AoaMethod.FFT] < 2 * stack


def test_aoa_plan_built_once_per_config_and_read_only():
    cfg = PipelineConfig(radar=C0, aoa_method=AoaMethod.MUSIC)
    plan = cfg.aoa_plan
    assert cfg.aoa_plan is plan
    assert dataclasses.replace(cfg).aoa_plan is not plan
    assert plan.phasors.shape == (2, 7, len(plan.grid_deg))  # cos, sin of lags 0.5..3.5
    assert plan.pair_lag.shape == (8 * 7 // 2,)
    assert plan.tdm_phase.shape == (C0.chirps_per_frame_per_tx, 8)
    for a in (plan.phasors, plan.pair_lag, plan.grid_deg, plan.tdm_phase):
        assert not a.flags.writeable
    fft_plan = PipelineConfig(radar=C0_1TX).aoa_plan
    assert fft_plan.grid_deg is None and fft_plan.tdm_phase is None
    assert fft_plan.pair_lag is None and fft_plan.phasors is None


def test_fft_plan_holds_the_spacing_and_the_bins_are_built_once():
    plan = PipelineConfig(radar=C0).aoa_plan
    assert plan.spacing == 0.5
    spectrum = aoa_fft(np.ones(8, complex), plan.array, 100)
    angles, visible = _fft_axis(0.5, 100)
    assert _fft_axis(0.5, 100)[0] is angles
    assert np.array_equal(angles, spectrum.angles_deg)
    assert len(visible) == 100 and visible.sum() == len(angles)
    assert not angles.flags.writeable and not visible.flags.writeable


def test_plan_built_under_worker_threads_gives_serial_results(frames):
    cubes = [dataclasses.replace(frames["c0_40_targets"], frame_index=i) for i in range(8)]
    serial = run_pipeline(PipelineConfig(radar=C0, aoa_method=AoaMethod.MUSIC), cubes)
    cfg = PipelineConfig(radar=C0, aoa_method=AoaMethod.MUSIC)  # no plan built yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_pipeline(cfg, cubes, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert [r.point_cloud for r in parallel] == [r.point_cloud for r in serial]


def test_capon_without_loading_on_noise_free_frame_names_frame():
    cfg = PipelineConfig(radar=C0, aoa_method=AoaMethod.CAPON, capon_loading=0.0)
    target = PointTarget(range_m=10.0, radial_velocity_m_s=1.0, azimuth_deg=20.0,
                         amplitude=1000.0)
    cube = synthesize_frame(C0, [target], frame_index=3)
    with pytest.raises(PipelineError, match="frame 3: covariance condition number") as e:
        run_pipeline(cfg, [cube])
    assert e.value.frame_index == 3


# sha256 over the names and bytes of the points CSV, RD CSV and RD PGM files
# that `process` writes under the circular Doppler CFAR default: every AoA
# method, both accumulations, log-Gabor, and 1, 2 and 3 TX.
# run_manifest.json is left out: it records the Python and numpy versions.
GOLDEN_OUTPUTS = {
    "music": "bbd933c33e0aebed6ed31dda43a4786da02b976110c17e39bc7d4d26f173bc60",
    "capon": "ca83b219d31859160541a5fa89435d72a38f7ca94dae6f7a3241d58087829f9b",
    "fft": "eb1e6ab46a91a51d81308752f7dcf86133d06b909bf3edccf55e6f373ea3a2cf",
    "bartlett": "e473424e630a54727582deeca3b86c947f4ff38e45f4e99b67457fcafdd9568a",
    "coherent_sum": "402d0c01224c1a34d0031ffbd890cfc38b336aa8f93f9e282ac09dc57be4659a",
    "log_gabor": "bce18c36e510d47ce8b5a8503ba8ac12d041cf91c481deccb32c68f748cd1846",
    "1tx": "947285d13619383e0f0634739ab1f8ff8084500587d28949774875afea16ecad",
    "3tx": "754197ab2948cd08790f98f610db3fc169107efd1f3c8bfd378052aba707da98",
}


def _dense_scene():
    rng = np.random.default_rng(77)
    return {
        "noise_power": NOISE_POWER,
        "seed": 9,
        "frames": [
            {"frame": f, "targets": [
                {"range_m": t.range_m, "velocity_m_s": t.radial_velocity_m_s,
                 "azimuth_deg": t.azimuth_deg, "amplitude": t.amplitude}
                for t in _targets(rng, 20)
            ]}
            for f in range(2)
        ],
    }


def _outputs_sha256(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "run_manifest.json":
            h.update(path.name.encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def _radar_dict(num_tx: int) -> dict:
    """C0 with ``num_tx`` transmitters and C0's slow-time period (2 x 60 us),
    so the dense scene's velocities stay unambiguous."""
    radar = {**c0_dict(), "num_tx": num_tx, "chirp_period_s": 120e-6 / num_tx}
    if num_tx == 1:
        del radar["tx_spacing_wavelengths"]
    return radar


def test_process_outputs_match_golden(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(_dense_scene()), encoding="utf-8")
    configs = {
        "music": {"radar": c0_dict(), "aoa_method": "music", "max_angles_per_detection": 2},
        "capon": {"radar": c0_dict(), "aoa_method": "capon"},
        "fft": {"radar": c0_dict()},
        "bartlett": {"radar": c0_dict(), "aoa_method": "bartlett",
                     "max_angles_per_detection": 2},
        "coherent_sum": {"radar": c0_dict(), "accumulation": "coherent_sum"},
        "log_gabor": {"radar": c0_dict(), "log_gabor": {"enabled": True}},
        "1tx": {"radar": _radar_dict(1)},
        "3tx": {"radar": _radar_dict(3)},
    }
    for name, config in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        capture = tmp_path / f"dense_{config['radar']['num_tx']}tx.orad"
        if not capture.exists():
            assert main(["simulate", "--config", str(cfg_path), "--scene",
                         str(scene_path), "--out", str(capture)]) == 0
        out = tmp_path / name
        assert main(["process", "--config", str(cfg_path), "--in", str(capture),
                     "--out", str(out)]) == 0
        assert _outputs_sha256(out) == GOLDEN_OUTPUTS[name], name
