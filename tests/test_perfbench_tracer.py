"""perfbench's tracer must find a module binding for every function it wraps."""

import subprocess
import sys
from pathlib import Path

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
