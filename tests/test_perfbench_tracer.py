"""perfbench's hooks must bind to radarkit: the tracer must find a module
binding for every function it wraps, and ``sut.py``'s timestamps must fire."""

import json
import subprocess
import sys
from pathlib import Path

from radarkit.cli import main

from test_pipeline import _write_json, pipeline_dict, scene_dict

REPO = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import radarkit.cli
import spans
spans.install(spans.Tracer())
"""


def test_tracer_installs_on_radarkit():
    # install() raises if a traced name has no radarkit module binding left.
    code = INSTALL.format(perfbench=str(REPO / "perfbench"), src=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _sut(result: Path, command: list[str], probe: bool) -> dict:
    """Run ``perfbench/sut.py`` on a radarkit command; return its record."""
    argv = [sys.executable, str(REPO / "perfbench" / "sut.py"), "--result", str(result)]
    argv += ["--probe"] if probe else []
    proc = subprocess.run(argv + ["--", *command], cwd=REPO, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["exit_code"] == 0
    return record


def _capture(tmp_path, n_frames) -> tuple[Path, Path]:
    cfg_path = tmp_path / "pipeline.json"
    scene_path = tmp_path / "scene.json"
    capture_path = tmp_path / "capture.orad"
    _write_json(cfg_path, pipeline_dict())
    _write_json(scene_path, scene_dict(n_frames=n_frames))
    assert main(["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
                 "--out", str(capture_path)]) == 0
    return cfg_path, capture_path


def test_sut_probes_stop_listen_and_process_at_the_ready_mark(tmp_path):
    cfg_path, capture_path = _capture(tmp_path, n_frames=1)
    listen = tmp_path / "listen.json"
    record = _sut(listen, ["listen", "--config", str(cfg_path), "--port", "0",
                           "--out", str(tmp_path / "live")], probe=True)
    assert "t_ready" in record
    assert json.loads((tmp_path / "listen.json.ready").read_text())["port"] > 0
    record = _sut(tmp_path / "process.json",
                  ["process", "--config", str(cfg_path), "--in", str(capture_path),
                   "--out", str(tmp_path / "out")], probe=True)
    assert "t_ready" in record
    assert record["writes"] == []


def test_sut_times_each_frame_written_by_process(tmp_path):
    cfg_path, capture_path = _capture(tmp_path, n_frames=2)
    record = _sut(tmp_path / "process.json",
                  ["process", "--config", str(cfg_path), "--in", str(capture_path),
                   "--out", str(tmp_path / "out")], probe=False)
    assert "t_ready" in record
    assert [i for i, _ in record["writes"]] == [0, 1]
