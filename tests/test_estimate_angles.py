"""Frame-batched angle estimation against the per-detection loop it replaced."""

import dataclasses
import hashlib
import json
import sys

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
from radarkit.aoa import AoaMethod, estimate_angles
from radarkit.cli import main
from radarkit.detect import cfar_2d, group_peaks
from radarkit.rangedoppler import accumulate_power, doppler_processing, range_processing

from conftest import C0
from test_pipeline import c0_dict

C0_1TX = dataclasses.replace(C0, num_tx=1, tx_spacing_wavelengths=None)
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
    }


METHODS = {
    "fft": dict(aoa_method=AoaMethod.FFT),
    "bartlett": dict(aoa_method=AoaMethod.BARTLETT),
    "capon": dict(aoa_method=AoaMethod.CAPON),
    "music_fixed": dict(aoa_method=AoaMethod.MUSIC, music_n_sources=2),
    "music_auto": dict(aoa_method=AoaMethod.MUSIC),
}


@pytest.mark.parametrize("frame", ["c0_40_targets", "one_tx", "no_detections"])
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
        cfg.connectivity,
    )
    assert (len(detections) >= 8) == (frame != "no_detections")
    expected = reference_angles(cfg, rd, detections)
    batched = estimate_angles(
        cfg.aoa_plan, rd, [d.doppler_bin for d in detections],
        [d.range_bin for d in detections], cfg.aoa_method,
        fft_bins=cfg.aoa_fft_bins, music_n_sources=cfg.music_n_sources,
        capon_loading=cfg.capon_loading, max_peaks=max_angles,
    )
    assert batched == expected
    assert process_frame(cfg, cube).point_cloud == to_point_cloud(
        detections, expected, cfg.radar, cube.frame_index
    )


def test_aoa_plan_built_once_per_config_and_read_only():
    cfg = PipelineConfig(radar=C0, aoa_method=AoaMethod.MUSIC)
    plan = cfg.aoa_plan
    assert cfg.aoa_plan is plan
    assert dataclasses.replace(cfg).aoa_plan is not plan
    assert plan.steering.shape == (8, len(plan.grid_deg))
    assert plan.tdm_phase.shape == (C0.chirps_per_frame_per_tx, 8)
    for a in (plan.steering, plan.grid_deg, plan.tdm_phase):
        assert not a.flags.writeable
    fft_plan = PipelineConfig(radar=C0_1TX).aoa_plan
    assert fft_plan.grid_deg is None and fft_plan.tdm_phase is None


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
# that `process` writes, computed before angle estimation was batched.
# run_manifest.json is left out: it records the Python and numpy versions.
GOLDEN_OUTPUTS = {
    "music": "826b794c48beba41864b73acbf3b534e5647c095b9e2a7c44e5c7d5b47b53b7b",
    "capon": "258978bbaf0e5cddb9554589b24fea489402ff4de8393a9efbd5ecc522d0d955",
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


def test_process_outputs_match_golden(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(_dense_scene()), encoding="utf-8")
    configs = {
        "music": {"radar": c0_dict(), "aoa_method": "music", "max_angles_per_detection": 2},
        "capon": {"radar": c0_dict(), "aoa_method": "capon"},
    }
    capture = tmp_path / "dense.orad"
    for name, config in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        if not capture.exists():
            assert main(["simulate", "--config", str(cfg_path), "--scene",
                         str(scene_path), "--out", str(capture)]) == 0
        out = tmp_path / name
        assert main(["process", "--config", str(cfg_path), "--in", str(capture),
                     "--out", str(out)]) == 0
        assert _outputs_sha256(out) == GOLDEN_OUTPUTS[name], name
