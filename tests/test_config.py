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
from radarkit.aoa import MAX_ANGLE_BINS, virtual_array
from radarkit.capture import FORMAT_VERSION, MAGIC
from radarkit.cli import main
from radarkit.detect import CfarParams
from radarkit.pipeline import LogGaborParams
from radarkit.rangedoppler import Accumulation, WindowKind

from conftest import C0
from test_pipeline import c0_dict, pipeline_dict, scene_dict


def test_config_hashes_unchanged(tmp_path):
    assert pipeline_config_from_dict(pipeline_dict()).config_sha256() == (
        "9aa02552c2a2895b60d4ab5733ec70cc6ebc5189bc8ab264932ed61db495cb88"
    )
    assert PipelineConfig(radar=C0).config_sha256() == (
        "e0cc17089fc22dac9e0e65900910984e5221db2113bbfcfc553d05bb1456d950"
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


def _cfar():
    return st.builds(
        CfarParams,
        guard_cells=st.integers(0, 4),
        train_cells=st.integers(1, 16),
        # A subnormal pfa has no finite threshold factor at one training cell.
        pfa=_floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
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
    # FFT needs a uniformly spaced virtual array of >= 2 elements, MUSIC >= 2.
    methods = [AoaMethod.BARTLETT, AoaMethod.CAPON]
    if n_virtual > 1:
        methods.append(AoaMethod.MUSIC)
    if virtual_array(radar).uniform_spacing() is not None:
        methods.append(AoaMethod.FFT)
    return PipelineConfig(
        radar=radar,
        range_window=draw(st.sampled_from(WindowKind)),
        doppler_window=draw(st.sampled_from(WindowKind)),
        range_cfar=draw(_cfar()),
        doppler_cfar=draw(_cfar()),
        aoa_method=draw(st.sampled_from(methods)),
        # Grid steps below 180/(MAX_ANGLE_BINS + 1) are rejected under the grid methods.
        aoa_grid_step_deg=draw(_floats(180.0 / (MAX_ANGLE_BINS + 1), 90.0, exclude_max=True)),
        aoa_fft_bins=draw(st.integers(n_virtual, 1024)),
        music_n_sources=draw(n_sources),
        # An int where a float is declared must survive as an int: the
        # config hash encodes 1 and 1.0 differently.
        capon_loading=draw(st.integers(0, 3) | _floats(0.0, 1.0)),
        max_angles_per_detection=draw(st.integers(1, 4)),
        log_gabor=draw(st.builds(
            LogGaborParams, st.booleans(), _floats(0.01, 0.5, exclude_max=True),
            _floats(0.1, 1.0, exclude_max=True)
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
        # An integer beyond int64 in a float field loads as its float value does.
        {"radar": dict(c0_dict(), sample_rate_hz=10**19)},
    ],
)
def test_load_time_checks_accept_boundaries_and_unselected_methods(overrides):
    pipeline_config_from_dict(pipeline_dict(**overrides))


def test_cfar_mode_is_not_a_key():
    with pytest.raises(ConfigError, match="range_cfar: unknown keys"):
        pipeline_config_from_dict(pipeline_dict(range_cfar={"mode": "cross_2d"}))
    assert "mode" not in PipelineConfig(radar=C0).to_jsonable()["range_cfar"]


def test_partial_nested_block_keeps_the_field_default():
    # Unset keys of a nested block come from the field's default object: the
    # Doppler CFAR stays circular, the range CFAR linear (README's blocks).
    block = {"guard_cells": 2, "train_cells": 8, "pfa": 1e-3}
    cfg = pipeline_config_from_dict(pipeline_dict(doppler_cfar=block, range_cfar=block))
    assert cfg.doppler_cfar == CfarParams(pfa=1e-3, circular=True)
    assert cfg.range_cfar == CfarParams(pfa=1e-3)
    assert pipeline_config_from_dict(pipeline_dict()).doppler_cfar == CfarParams(circular=True)
    linear = pipeline_config_from_dict(pipeline_dict(doppler_cfar={"circular": False}))
    assert linear.doppler_cfar == CfarParams()
    assert pipeline_config_from_dict(
        pipeline_dict(log_gabor={"enabled": True})).log_gabor == LogGaborParams(enabled=True)


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
    "header_blob_int_of_5001_digits": ({}, None, b"1" + b"0" * 5000, "FormatError",
                                       "4300 digits"),
    "header_blob_nested_100000_deep": ({}, None, b"[" * 100000, "FormatError",
                                       "recursion"),
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
    "radar_num_tx_zero": ({"radar": dict(c0_dict(), num_tx=0)}, None, None,
                          "ConfigError", "radar: num_tx"),
    "range_cfar_window_fills_axis": (
        {"range_cfar": {"guard_cells": 4, "train_cells": 124}}, None, None,
        "ConfigError", "range_cfar"),
    "doppler_cfar_window_fills_axis": (
        {"doppler_cfar": {"guard_cells": 30, "train_cells": 34}}, None, None,
        "ConfigError", "doppler_cfar"),
    "doppler_cfar_one_chirp": ({"radar": dict(c0_dict(), chirps_per_frame_per_tx=1)},
                               None, None, "ConfigError", "doppler_cfar"),
    "fft_one_element": ({"radar": dict(c0_dict(), num_tx=1, num_rx=1)}, None, None,
                        "ConfigError", "aoa_method"),
    "fft_non_uniform": ({"radar": dict(c0_dict(), tx_spacing_wavelengths=1.0)}, None,
                        None, "ConfigError", "aoa_method"),
    "music_one_element": ({"radar": dict(c0_dict(), num_tx=1, num_rx=1),
                           "aoa_method": "music"}, None, None, "ConfigError", "aoa_method"),
    "log_gabor_f0_nyquist": ({"log_gabor": {"enabled": True, "f0_cycles": 0.5}}, None, None,
                             "ConfigError", "log_gabor: f0_cycles"),
    "log_gabor_sigma_one": ({"log_gabor": {"enabled": True, "sigma_ratio": 1.0}}, None,
                            None, "ConfigError", "log_gabor: sigma_ratio"),
    "log_gabor_disabled_f0_zero": ({"log_gabor": {"f0_cycles": 0.0}}, None, None,
                                   "ConfigError", "log_gabor: f0_cycles"),
    "num_rx_beyond_int64": ({"radar": dict(c0_dict(), num_rx=2**63)}, None, None,
                            "ConfigError", "radar: num_rx"),
    "frame_size_beyond_int64": ({"radar": dict(c0_dict(), samples_per_chirp=2**60)}, None,
                                None, "ConfigError", "radar: samples_per_chirp"),
    "rx_spacing_int_beyond_float": (
        {"radar": dict(c0_dict(), rx_spacing_wavelengths=10**309)}, None, None,
        "ConfigError", "radar: rx_spacing_wavelengths"),
    "sample_rate_int_beyond_float": ({"radar": dict(c0_dict(), sample_rate_hz=10**309)},
                                     None, None, "ConfigError", "radar: sample_rate_hz"),
    "rx_spacing_element_overflows": (
        {"radar": dict(c0_dict(), rx_spacing_wavelengths=1e308)}, None, None,
        "ConfigError", "radar: rx_spacing_wavelengths"),
    "pfa_subnormal": ({"range_cfar": {"guard_cells": 0, "train_cells": 1, "pfa": 5e-324}},
                      None, None, "ConfigError", "range_cfar: pfa"),
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


# JSON that parses by the grammar but not in Python; written as raw text, since
# json.dumps cannot write the integer either. A capture header's blob is a
# MALFORMED row.
@pytest.mark.parametrize(
    "text", ["1" + "0" * 5000, "[" * 100000], ids=["int_of_5001_digits", "nested_100000_deep"])
@pytest.mark.parametrize("which", ["config", "scene"])
def test_cli_json_python_cannot_hold_is_one_json_line(tmp_path, capsys, which, text):
    paths = {"config": tmp_path / "pipeline.json", "scene": tmp_path / "scene.json"}
    paths["config"].write_text(json.dumps(pipeline_dict()), encoding="utf-8")
    paths["scene"].write_text(json.dumps(scene_dict(n_frames=1)), encoding="utf-8")
    paths[which].write_text(text, encoding="utf-8")
    argv = ["simulate", "--config", str(paths["config"]), "--scene", str(paths["scene"]),
            "--out", str(tmp_path / "c.orad")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert str(paths[which]) in err["message"]
