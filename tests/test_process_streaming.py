"""``radarkit process`` streams its capture: frames are decoded, processed and
written a few at a time, a truncated capture is rejected before any output is
written, and a corrupted capture gives a clean exit or the one-line JSON
error."""

import contextlib
import io
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radarkit.capture
import radarkit.cli
from radarkit import DataCube, RadarError
from radarkit.capture import FormatError, frame_byte_count, read_capture_file, write_capture_file
from radarkit.core import encode_jsonable
from radarkit.cli import main

from conftest import C0, random_int_cube_data, small_config
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


def _subclass_names(cls) -> set[str]:
    return {cls.__name__}.union(*(_subclass_names(c) for c in cls.__subclasses__()))


_ERROR_NAMES = _subclass_names(RadarError) | _subclass_names(OSError)
_FUZZ_RADAR = small_config(num_tx=1, num_rx=2, chirps=8, samples=16)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 3-frame capture of a 1 TX, 2 RX, 8-chirp, 16-sample radar, its
    pipeline config and a directory for the mutated copies."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    path = root / "capture.orad"
    write_capture_file(path, _FUZZ_RADAR, (
        DataCube(random_int_cube_data(rng, _FUZZ_RADAR), i, _FUZZ_RADAR) for i in range(3)))
    cfar = {"guard_cells": 1, "train_cells": 2}
    cfg_path = root / "pipeline.json"
    cfg_path.write_text(json.dumps(pipeline_dict(
        radar=encode_jsonable(_FUZZ_RADAR), range_cfar=cfar, doppler_cfar=cfar)),
        encoding="utf-8")
    assert _process(path, cfg_path, root / "out") == 0
    return path.read_bytes(), cfg_path, root


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, position, value in mutations:
        if kind == "insert":
            buf[position % (len(buf) + 1):position % (len(buf) + 1)] = value
        elif buf and kind == "flip":
            buf[position % len(buf)] ^= value[0] or 1
        elif buf:
            del buf[position % len(buf):]
    return bytes(buf)


# Half the positions fall in the first 300 bytes: the header (267 bytes for this
# radar) and the start of frame 0. The whole capture is 3339 bytes.
_POSITIONS = st.one_of(st.integers(0, 300), st.integers(0, 4096))
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "truncate"]),
                                _POSITIONS, st.binary(min_size=1, max_size=8)),
                      min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(mutations=_MUTATIONS)
def test_cli_process_corrupted_capture_exits_cleanly_or_with_one_json_error(
        fuzz_files, mutations):
    data, cfg_path, root = fuzz_files
    path = root / "mutated.orad"
    path.write_bytes(_mutate(data, mutations))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["process", "--config", str(cfg_path), "--in", str(path),
                     "--out", str(root / "out")])
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1
        assert json.loads(lines[0])["error"] in _ERROR_NAMES
