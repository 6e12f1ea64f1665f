"""The strict config codec: golden hashes, round trips and CLI error lines."""

import dataclasses
import hashlib
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarkit import (
    AoaMethod,
    ConfigError,
    PipelineConfig,
    pipeline_config_from_dict,
    write_capture_file,
)
from radarkit.aoa import MAX_ANGLE_BINS
from radarkit.capture import FORMAT_VERSION, MAGIC
from radarkit.cli import main
from radarkit.detect import CfarMode, CfarParams
from radarkit.pipeline import LogGaborParams
from radarkit.rangedoppler import Accumulation, WindowKind

from conftest import C0
from test_pipeline import pipeline_dict, scene_dict


def test_config_hashes_unchanged(tmp_path):
    assert pipeline_config_from_dict(pipeline_dict()).config_sha256() == (
        "12b007ad48ffa3f8c635578ce731f03702aedfe58df438f1f90b93081d09351f"
    )
    assert PipelineConfig(radar=C0).config_sha256() == (
        "42e83da1a48e5bb27c9c20c4302184bd509dea370394b6fd5beedd83aebff0b9"
    )
    path = tmp_path / "empty.orad"
    write_capture_file(path, C0, [])
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<I", raw[6:10])
    assert hashlib.sha256(raw[10:10 + blob_len]).hexdigest() == (
        "51b38cbf9ff09a6d9c885595ef9c0f80d191d9abe476f03064dfcb2fa6dbc187"
    )


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


def _cfar(mode):
    return st.builds(
        CfarParams,
        guard_cells=st.integers(0, 4),
        train_cells=st.integers(1, 16),
        pfa=_floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        mode=st.just(mode),
        circular=st.booleans(),
    )


@st.composite
def pipeline_configs(draw):
    radar = dataclasses.replace(
        C0,
        num_tx=draw(st.integers(1, 3)),
        num_rx=draw(st.integers(1, 4)),
        tx_spacing_wavelengths=draw(st.none() | _floats(0.1, 4.0)),
    )
    n_virtual = radar.num_tx * radar.num_rx
    n_sources = st.none()
    if n_virtual > 1:
        n_sources |= st.integers(1, n_virtual - 1)
    return PipelineConfig(
        radar=radar,
        range_window=draw(st.sampled_from(WindowKind)),
        doppler_window=draw(st.sampled_from(WindowKind)),
        range_cfar=draw(_cfar(CfarMode.RANGE_AXIS)),
        doppler_cfar=draw(_cfar(CfarMode.DOPPLER_AXIS)),
        aoa_method=draw(st.sampled_from(AoaMethod)),
        # Grid steps below 180/(MAX_ANGLE_BINS + 1) are rejected under the grid methods.
        aoa_grid_step_deg=draw(_floats(180.0 / (MAX_ANGLE_BINS + 1), 90.0, exclude_max=True)),
        aoa_fft_bins=draw(st.integers(n_virtual, 1024)),
        music_n_sources=draw(n_sources),
        # An int where a float is declared must survive as an int: the
        # config hash encodes 1 and 1.0 differently.
        capon_loading=draw(st.integers(0, 3) | _floats(0.0, 1.0)),
        max_angles_per_detection=draw(st.integers(1, 4)),
        log_gabor=draw(st.builds(
            LogGaborParams, st.booleans(), _floats(0.01, 0.5), _floats(0.1, 1.0)
        )),
        accumulation=draw(st.sampled_from(Accumulation)),
        connectivity=draw(st.sampled_from([4, 8])),
        seed=draw(st.integers(0, 2**32 - 1)),
        output_dir=draw(st.none() | st.text(max_size=12)),
    )


@settings(max_examples=150, deadline=None)
@given(pipeline_configs())
def test_codec_round_trip(cfg):
    text = json.dumps(cfg.to_jsonable())
    decoded = pipeline_config_from_dict(json.loads(text))
    assert decoded == cfg
    assert decoded.config_sha256() == cfg.config_sha256()


@pytest.mark.parametrize(
    "overrides",
    [
        {"aoa_fft_bins": 8},
        {"aoa_fft_bins": 4, "aoa_method": "music"},
        {"aoa_method": "music", "music_n_sources": 7},
        {"aoa_method": "capon", "capon_loading": 0},
        {"capon_loading": -1.0},
        {"connectivity": 4, "range_window": "HAMMING", "aoa_method": "Bartlett"},
        {"aoa_fft_bins": MAX_ANGLE_BINS},
        {"aoa_method": "capon", "aoa_grid_step_deg": 180.0 / (MAX_ANGLE_BINS + 1)},
        {"aoa_grid_step_deg": 1e-9},
        {"aoa_fft_bins": 10**12, "aoa_method": "music"},
    ],
)
def test_load_time_checks_accept_boundaries_and_unselected_methods(overrides):
    pipeline_config_from_dict(pipeline_dict(**overrides))


def test_cfar_mode_is_not_a_key():
    with pytest.raises(ConfigError, match="range_cfar: unknown keys"):
        pipeline_config_from_dict(pipeline_dict(range_cfar={"mode": "cross_2d"}))
    assert "mode" not in PipelineConfig(radar=C0).to_jsonable()["range_cfar"]


def _without(*path):
    scene = d = scene_dict(n_frames=1)
    for step in path[:-1]:
        d = d[step]
    del d[path[-1]]
    return scene


# (pipeline overrides, scene, header blob, error, text the message must hold)
MALFORMED = {
    "range_window_unknown": ({"range_window": "tukey"}, None, None,
                             "ConfigError", "range_window"),
    "accumulation_unknown": ({"accumulation": "bogus"}, None, None,
                             "ConfigError", "accumulation"),
    "range_window_not_str": ({"range_window": 5}, None, None,
                             "ConfigError", "range_window"),
    "guard_cells_str": ({"range_cfar": {"guard_cells": "2"}}, None, None,
                        "ConfigError", "range_cfar.guard_cells"),
    "target_without_range": ({}, _without("frames", 0, "targets", 0, "range_m"), None,
                             "ConfigError", "scene.frames[0].targets[0]"),
    "frame_without_index": ({}, _without("frames", 0, "frame"), None,
                            "ConfigError", "scene.frames[0]"),
    "noise_power_str": ({}, dict(scene_dict(n_frames=1), noise_power="x"), None,
                        "ConfigError", "scene.noise_power"),
    "header_blob_not_object": ({}, None, b"5", "FormatError", "object"),
    "connectivity": ({"connectivity": 6}, None, None, "ConfigError", "connectivity"),
    "max_angles": ({"max_angles_per_detection": 0}, None, None,
                   "ConfigError", "max_angles_per_detection"),
    "grid_step_zero": ({"aoa_grid_step_deg": 0}, None, None,
                       "ConfigError", "aoa_grid_step_deg"),
    "grid_step_90": ({"aoa_grid_step_deg": 90.0}, None, None,
                     "ConfigError", "aoa_grid_step_deg"),
    "fft_bins_str": ({"aoa_fft_bins": "256"}, None, None, "ConfigError", "aoa_fft_bins"),
    "fft_bins_below_virtual_rx": ({"aoa_fft_bins": 7}, None, None,
                                  "ConfigError", "aoa_fft_bins"),
    "fft_bins_above_max": ({"aoa_fft_bins": MAX_ANGLE_BINS + 1}, None, None,
                           "ConfigError", "aoa_fft_bins"),
    "fft_bins_huge": ({"aoa_fft_bins": 10**12}, None, None, "ConfigError", "aoa_fft_bins"),
    "grid_step_tiny": ({"aoa_method": "music", "aoa_grid_step_deg": 1e-9}, None, None,
                       "ConfigError", "aoa_grid_step_deg"),
    "grid_step_one_angle_too_many": (
        {"aoa_method": "bartlett", "aoa_grid_step_deg": 180.0 / (MAX_ANGLE_BINS + 2)},
        None, None, "ConfigError", "aoa_grid_step_deg"),
    "music_sources_zero": ({"aoa_method": "music", "music_n_sources": 0}, None, None,
                           "ConfigError", "music_n_sources"),
    "music_sources_all_rx": ({"aoa_method": "music", "music_n_sources": 8}, None, None,
                             "ConfigError", "music_n_sources"),
    "capon_loading_negative": ({"aoa_method": "capon", "capon_loading": -1e-3}, None,
                               None, "ConfigError", "capon_loading"),
}


@pytest.mark.parametrize(
    "overrides, scene, blob, error, key", MALFORMED.values(), ids=list(MALFORMED)
)
def test_cli_malformed_input_is_one_json_line(
    tmp_path, capsys, overrides, scene, blob, error, key
):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(pipeline_dict(**overrides)), encoding="utf-8")
    if blob is None:
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene or scene_dict(n_frames=1)), encoding="utf-8")
        argv = ["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
                "--out", str(tmp_path / "c.orad")]
    else:
        capture = tmp_path / "c.orad"
        capture.write_bytes(
            MAGIC + struct.pack("<HI", FORMAT_VERSION, len(blob)) + blob
            + struct.pack("<I", 0)
        )
        argv = ["process", "--config", str(cfg_path), "--in", str(capture),
                "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error
    assert key in err["message"]


@pytest.mark.parametrize("which", ["config", "scene"])
def test_cli_non_utf8_input_is_one_json_line(tmp_path, capsys, which):
    paths = {"config": tmp_path / "pipeline.json", "scene": tmp_path / "scene.json"}
    paths["config"].write_text(json.dumps(pipeline_dict()), encoding="utf-8")
    paths["scene"].write_text(json.dumps(scene_dict(n_frames=1)), encoding="utf-8")
    paths[which].write_bytes(b"\xff\xfe{}")
    argv = ["simulate", "--config", str(paths["config"]), "--scene", str(paths["scene"]),
            "--out", str(tmp_path / "c.orad")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UnicodeDecodeError"
