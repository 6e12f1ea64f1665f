"""``radarkit process`` streams its capture: frames are decoded, processed and
written a few at a time, and a truncated capture is rejected before any
output is written."""

import json
import sys
import threading

import numpy as np
import pytest

import radarkit.capture
import radarkit.cli
from radarkit import DataCube
from radarkit.capture import FormatError, frame_byte_count, read_capture_file, write_capture_file
from radarkit.cli import main

from conftest import C0, random_int_cube_data
from test_pipeline import pipeline_dict


def _capture(tmp_path, n_frames: int):
    rng = np.random.default_rng(11)
    path = tmp_path / "capture.orad"
    write_capture_file(
        path, C0, (DataCube(random_int_cube_data(rng, C0), i, C0) for i in range(n_frames))
    )
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(pipeline_dict()), encoding="utf-8")
    return path, cfg_path


def _process(capture_path, cfg_path, out, workers=1) -> int:
    return main(["process", "--config", str(cfg_path), "--in", str(capture_path),
                 "--out", str(out), "--workers", str(workers)])


def _one_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_reader_rejects_truncation_before_decoding(tmp_path, monkeypatch):
    path, _ = _capture(tmp_path, 4)
    per_frame = frame_byte_count(C0)
    path.write_bytes(path.read_bytes()[: -2 * per_frame + 100])
    decoded = []
    monkeypatch.setattr(radarkit.capture, "deinterleave", lambda *a: decoded.append(a))
    with pytest.raises(FormatError, match=f"^truncated frame 2: expected {per_frame} bytes, got 100$"):
        read_capture_file(path)
    assert decoded == []


def test_reader_decodes_one_frame_per_next(tmp_path, monkeypatch):
    path, _ = _capture(tmp_path, 3)
    decode = radarkit.capture.deinterleave
    decoded = []

    def counting(buf, cfg, frame_index=0):
        decoded.append(frame_index)
        return decode(buf, cfg, frame_index)

    monkeypatch.setattr(radarkit.capture, "deinterleave", counting)
    cfg, frames = read_capture_file(path)
    assert cfg == C0
    assert decoded == []
    assert next(frames).frame_index == 0
    assert decoded == [0]
    frames.close()
    assert list(frames) == []


def test_cli_truncated_capture_writes_no_frame(tmp_path, capsys):
    path, cfg_path = _capture(tmp_path, 4)
    per_frame = frame_byte_count(C0)
    path.write_bytes(path.read_bytes()[: -2 * per_frame - 7])
    out = tmp_path / "out"
    assert _process(path, cfg_path, out) == 1
    err = _one_json_error(capsys)
    assert err["error"] == "FormatError"
    assert err["message"].startswith("truncated frame 1:")
    assert not list(out.glob("frame_*"))


@pytest.mark.parametrize("workers", [1, 4])
def test_cli_process_decodes_a_bounded_number_of_frames(tmp_path, monkeypatch, workers):
    path, cfg_path = _capture(tmp_path, 9)
    decode = radarkit.capture.deinterleave
    write = radarkit.cli.write_frame_outputs
    decoded = 0
    writes = []

    def counting_decode(*args):
        nonlocal decoded
        decoded += 1
        return decode(*args)

    def recording_write(out_dir, result):
        writes.append((result.frame_index, decoded))
        write(out_dir, result)

    monkeypatch.setattr(radarkit.capture, "deinterleave", counting_decode)
    monkeypatch.setattr(radarkit.cli, "write_frame_outputs", recording_write)
    out = tmp_path / "out"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost handoff shows
    try:
        assert _process(path, cfg_path, out, workers) == 0
    finally:
        sys.setswitchinterval(interval)
    assert [i for i, _ in writes] == list(range(9))
    for i, n_decoded in writes:
        assert n_decoded <= i + workers + 1
    assert len(list(out.glob("frame_*"))) == 27


def test_cli_failed_write_ends_the_run(tmp_path, capsys):
    path, cfg_path = _capture(tmp_path, 4)
    out = tmp_path / "out"
    (out / "frame_1_rd.csv").mkdir(parents=True)
    codes = []
    run = threading.Thread(
        target=lambda: codes.append(_process(path, cfg_path, out)), daemon=True
    )
    run.start()
    run.join(timeout=60)
    assert not run.is_alive()
    assert codes == [1]
    assert _one_json_error(capsys)["error"] == "IsADirectoryError"
    for name in ("frame_0_points.csv", "frame_0_rd.csv", "frame_0_rd.pgm"):
        assert (out / name).is_file()
    assert not list(out.glob("frame_2_*"))
    assert not (out / "run_manifest.json").exists()
