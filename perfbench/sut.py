"""Run one ``radarkit`` CLI command in this process and time it from outside.

    python3 perfbench/sut.py --result R.json [--trace] [--probe] -- <radarkit args>

The command runs through ``radarkit.cli.main``, imported from the checkout's
``src/``. Untraced, the only hooks are timestamps:

- ``radarkit.cli.read_capture_file`` (``process``) and
  ``CaptureListener.__init__`` (``listen``) mark the moment the command is
  ready for its first frame; for ``listen`` the bound port is written to
  ``R.json.ready`` at that moment;
- ``radarkit.cli.write_frame_outputs`` marks when each frame's outputs are
  written.

``--probe`` stops the command at the ready mark, to time set-up alone.
``--trace`` also installs the span tracer of ``spans.py`` and writes the
spans to ``R.json.spans``.

R.json holds the marks (on the system-wide monotonic clock), the command's
exit code and the peak RSS of this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Ready(BaseException):
    """Raised at the ready mark of a --probe run; never caught by the CLI."""


def _write_json(path: Path, obj) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj), encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    if not (SRC / "radarkit" / "cli.py").is_file():
        print(f"no radarkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import radarkit.capture
    import radarkit.cli

    if Path(radarkit.cli.__file__).resolve().parent != SRC / "radarkit":
        print(f"imported radarkit from {radarkit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from spans import Tracer, install, now

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    record: dict = {"writes": []}

    def ready(extra=None):
        if "t_ready" not in record:
            record["t_ready"] = now()
            if extra:
                record.update(extra)
                _write_json(args.result.with_name(args.result.name + ".ready"), record)
        if args.probe:
            raise Ready

    read_capture_file = radarkit.cli.read_capture_file

    def timed_read(*a, **k):
        ready()
        return read_capture_file(*a, **k)

    radarkit.cli.read_capture_file = timed_read

    listener_init = radarkit.capture.CaptureListener.__init__

    def timed_listener_init(self, *a, **k):
        listener_init(self, *a, **k)
        try:
            ready({"port": self.port})
        except Ready:
            self.stop()
            raise

    radarkit.capture.CaptureListener.__init__ = timed_listener_init

    write_frame_outputs = radarkit.cli.write_frame_outputs

    def timed_write(out_dir, result):
        write_frame_outputs(out_dir, result)
        record["writes"].append((result.frame_index, now()))

    radarkit.cli.write_frame_outputs = timed_write

    cli_main = radarkit.cli.main
    if tracer is not None:
        cli_main = tracer.wrap("cli.main", cli_main)
    record["t_main_start"] = now()
    try:
        code = cli_main(command)
    except Ready:
        code = 0
    record["t_main_end"] = now()
    record["exit_code"] = code
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.result.with_name(args.result.name + ".spans"))
    _write_json(args.result, record)
    return code


if __name__ == "__main__":
    sys.exit(main())
