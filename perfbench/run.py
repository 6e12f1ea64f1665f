"""radarkit benchmark: offline sparse and dense processing plus open-loop live UDP.

    python3 perfbench/run.py --workload sparse-process --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. The program runs from the checkout's
``src/`` and is driven only through ``radarkit.cli.main``: ``simulate``,
``process`` and ``listen``, each in its own process (``sut.py``). The seed
stays here; the program sees only the generated config, scene, capture file
or datagrams.

Workloads:

- sparse-process: 3 drifting targets per frame, FFT angles, default config,
  ``process`` with one worker;
- dense-music: 40 targets per frame redrawn every frame, MUSIC with an
  automatic source count, one worker;
- live-udp: the sparse scene sent open-loop over loopback to ``listen`` at
  6 frames/s, with a seeded 1% of packets withheld and reordering of at
  most 8 places.

The offline workloads repeat simulate-then-process cycles of fresh frames
until ``--seconds`` have passed (at least MIN_CYCLES). live-udp streams
``--seconds`` x 6 frames. Rates are total frames over total measured time;
set-up time is the median of several stand-alone set-ups per run.

Every frame's points are checked against the ground truth (``check.py``).
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the commands are also run under the
span tracer and the JSON carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layers
import workloads as W
from spans import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 6
MIN_CYCLES = 3
LIVE_IDLE_TIMEOUT_S = 5.0
CHILD_TIMEOUT_S = 120.0

END_TO_END = [
    ("frames_per_s", "frames/s"),
    ("simulate_frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of a frame)."""


def run_sut(work: Path, name: str, command: list[str], trace=False, probe=False,
            wait=True):
    """Start ``sut.py`` on a radarkit command; return (t_spawn, Popen, result path)."""
    result = work / f"{name}.json"
    argv = [sys.executable, str(HERE / "sut.py"), "--result", str(result)]
    argv += ["--trace"] if trace else []
    argv += ["--probe"] if probe else []
    log = open(work / f"{name}.log", "wb")
    t_spawn = now()
    try:
        proc = subprocess.Popen(argv + ["--", *command], cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
    finally:
        log.close()
    if wait:
        finish(proc)
    return t_spawn, proc, result


def finish(proc: subprocess.Popen, timeout=CHILD_TIMEOUT_S) -> int:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{proc.args[1:3]} did not finish in {timeout} s") from None


def read_result(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def setup_samples(work: Path, command: list[str], probes: int, warm_up=True) -> list[float]:
    """Set-up time of ``probes`` stand-alone starts, after an optional warm-up start."""
    samples = []
    for i in range(probes + warm_up):
        t_spawn, proc, path = run_sut(work, f"probe_{i}", command, probe=True)
        rec = read_result(path)
        if proc.returncode != 0 or rec is None or "t_ready" not in rec:
            raise BenchError(f"set-up probe failed: see {work / f'probe_{i}.log'}")
        if i or not warm_up:
            samples.append(rec["t_ready"] - t_spawn)
    return samples


def simulate(work: Path, name: str, config: Path, scene: Path, n_frames: int, trace: bool):
    """Run ``radarkit simulate``; return (capture path, (frames, seconds), span dump or None)."""
    capture = work / f"{name}.orad"
    _, proc, path = run_sut(work, name, ["simulate", "--config", str(config),
                                         "--scene", str(scene), "--out", str(capture)],
                            trace=trace)
    rec = read_result(path)
    if proc.returncode != 0 or rec is None:
        raise BenchError(f"simulate failed: see {work / (name + '.log')}")
    return capture, (n_frames, rec["t_main_end"] - rec["t_main_start"]), _spans(path) if trace else None


def _spans(result: Path):
    return layers.load(result.with_name(result.name + ".spans"))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples beyond it."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def rate(samples: list[tuple[int, float]]) -> float:
    return sum(n for n, _ in samples) / sum(t for _, t in samples)


class Run:
    """Everything one benchmark run measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (frames, seconds) of each timed command; rates are total frames over
        # total time, which averages over the machine's changes of speed.
        self.fps: list[tuple[int, float]] = []
        self.fps_traced: list[tuple[int, float]] = []
        self.sim_fps: list[tuple[int, float]] = []
        self.latencies_ms: list[float] = []
        self.setup: list[float] = []
        self.rss: list[float] = []
        self.sut_spans: list = []
        self.sim_spans: list = []
        self.drops: dict = {}
        self.notes: list[str] = []

    def fail(self, frames: int, reason: str):
        self.failed += frames
        self.failures.append(reason)

    def end_to_end(self) -> dict:
        p_tail, pct = tail(self.latencies_ms)
        self.notes.append(f"frame_ms_tail is p{pct:.1f} of {len(self.latencies_ms)} frames")
        values = {
            "frames_per_s": rate(self.fps),
            "simulate_frames_per_s": rate(self.sim_fps),
            "frame_ms_p50": statistics.median(self.latencies_ms),
            "frame_ms_tail": p_tail,
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(self.rss),
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}

    def per_layer(self) -> dict:
        ratio = rate(self.fps_traced) / rate(self.fps)
        values = layers.per_layer(self.sut_spans, self.sim_spans, self.drops, ratio)
        return {k: {"value": values[k], "unit": unit} for k, unit, _ in layers.PER_LAYER}


def process_once(run: Run, work: Path, name: str, config: Path, capture: Path,
                 truth: list, trace: bool):
    """One ``radarkit process`` of a capture file, checked against ``truth``."""
    out = work / name
    t_spawn, proc, path = run_sut(work, name, ["process", "--config", str(config),
                                               "--in", str(capture), "--out", str(out)],
                                  trace=trace)
    rec = read_result(path)
    run.attempted += len(truth)
    if proc.returncode != 0 or rec is None or "t_ready" not in rec:
        run.fail(len(truth), f"{name}: process exited {proc.returncode}")
        return
    fps = (len(truth), rec["t_main_end"] - rec["t_ready"])
    if trace:
        run.fps_traced.append(fps)
        run.sut_spans.append(_spans(path))
    else:
        run.fps.append(fps)
        run.setup.append(rec["t_ready"] - t_spawn)
        run.rss.append(rec["rss_mb"])
        run.latencies_ms += [1e3 * (t - rec["t_ready"]) for _, t in rec["writes"]]
    for frame, reason in check.check_frames(out, truth):
        run.fail(1, f"{name} frame {frame}: {reason}")
    shutil.rmtree(out, ignore_errors=True)


def offline(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    run = Run()
    n = W.CYCLE_FRAMES[workload]
    config, _, _ = W.write_cycle_inputs(workload, seed, 0, n, work)
    run.setup += setup_samples(work, ["process", "--config", str(config),
                                      "--in", str(work / "none.orad"), "--out", str(work / "probe")],
                               SETUP_PROBES)
    start = time.monotonic()
    cycle = 0
    while cycle < MIN_CYCLES or time.monotonic() - start < seconds:
        config, scene, truth = W.write_cycle_inputs(workload, seed, cycle, n, work)
        capture, fps, spans = simulate(work, f"sim_{cycle}", config, scene, n, trace)
        run.sim_fps.append(fps)
        if spans is not None:
            run.sim_spans.append(spans)
        # Traced and untraced processing of the same capture alternate which
        # goes first, so that warm caches favour neither in the overhead ratio.
        passes = (False, True) if trace else (False,)
        for rep in range(W.PROCESS_REPEATS[workload]):
            for traced in passes[:: 1 if (cycle + rep) % 2 == 0 else -1]:
                process_once(run, work, f"{'traced' if traced else 'proc'}_{cycle}_{rep}",
                             config, capture, truth, trace=traced)
        capture.unlink()
        cycle += 1
    run.notes.append(f"{cycle} cycles of {n} frames, each processed "
                     f"{W.PROCESS_REPEATS[workload]} time(s)")
    return run


def wait_ready(path: Path, proc: subprocess.Popen, timeout=60.0) -> dict:
    ready = path.with_name(path.name + ".ready")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rec = read_result(ready)
        if rec is not None:
            return rec
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    raise BenchError(f"listener did not become ready: see {path.with_suffix('.log')}")


def stream(run: Run, work: Path, name: str, config: Path, captures: list[Path],
           truth: list, n_frames: int, seed: int, trace: bool):
    """Stream ``n_frames`` frames to ``radarkit listen`` and check what it wrote."""
    out = work / name
    t_spawn, listener, path = run_sut(
        work, name, ["listen", "--config", str(config), "--port", "0", "--out", str(out),
                     "--frames", str(n_frames), "--idle-timeout-s", str(LIVE_IDLE_TIMEOUT_S)],
        trace=trace, wait=False)
    try:
        ready = wait_ready(path, listener)
        gen_result = work / f"{name}_gen.json"
        generator = subprocess.Popen(
            [sys.executable, str(HERE / "udpgen.py"), "--capture", *map(str, captures),
             "--frames", str(n_frames), "--port", str(ready["port"]), "--seed", str(seed),
             "--result", str(gen_result)], cwd=ROOT)
        try:
            if finish(generator) != 0:
                raise BenchError("UDP generator failed")
        finally:
            if generator.poll() is None:
                generator.kill()
                generator.wait()
        finish(listener)
    finally:
        if listener.poll() is None:
            listener.kill()
            listener.wait()
    gen = json.loads(gen_result.read_text(encoding="utf-8"))
    rec = read_result(path)
    run.attempted += n_frames
    run.notes.append(f"{name}: generator max lag {1e3 * gen['max_lag_s']:.2f} ms, "
                     f"{gen['sent']} datagrams sent, {gen['withheld']} withheld, "
                     f"{gen['pad_frames']} pad frames")
    if listener.returncode != 0 or rec is None:
        run.fail(n_frames, f"{name}: listen exited {listener.returncode}")
        return
    written = dict(rec["writes"])
    try:
        drops = json.loads((out / "drops.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        drops = None
    failed = {i: "missing" for i in range(n_frames) if i not in written}
    failed.update({i: "unexpected frame index" for i in written if not 0 <= i < n_frames})
    if drops is None:
        failed.update({i: "no drops.json" for i in range(n_frames)})
    else:
        totals = {k: sum(d[k] for d in drops) for k in
                  ("packets_received", "packets_dropped", "bytes_zero_filled", "reordered_count")}
        if trace:
            run.drops = totals
        if totals["packets_dropped"] != gen["withheld"]:
            # Loss the generator did not cause: every frame that lost packets is suspect.
            failed.update({d["frame"]: f"{totals['packets_dropped']} packets dropped, "
                           f"{gen['withheld']} withheld" for d in drops if d["packets_dropped"]})
    for i, truth_i in enumerate(truth):
        if i in written and i not in failed:
            reason = check.frame_failure(out, i, truth_i)
            if reason is not None:
                failed[i] = reason
    for i, reason in sorted(failed.items()):
        run.fail(1, f"{name} frame {i}: {reason}")
    fps = (len(written), max(written.values()) - gen["t0"] if written else 1.0)
    if trace:
        run.fps_traced.append(fps)
        run.sut_spans.append(_spans(path))
    else:
        run.fps.append(fps)
        run.setup.append(ready["t_ready"] - t_spawn)
        run.rss.append(rec["rss_mb"])
        due = gen["frame_due"]
        run.latencies_ms += [1e3 * (t - due[i]) for i, t in written.items() if 0 <= i < n_frames]
    shutil.rmtree(out, ignore_errors=True)


def live(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    run = Run()
    config, _, _ = W.write_cycle_inputs("live-udp", seed, 0, 1, work)
    probe = ["listen", "--config", str(config), "--port", "0", "--out", str(work / "probe"),
             "--frames", "1"]
    run.setup += setup_samples(work, probe, SETUP_PROBES // 2)
    # The repeating part of the scene, simulated in chunks. The chunks are
    # simulated again after the stream, so that simulate_frames_per_s, like
    # set-up time, is sampled at both ends of the run.
    scenes, captures, period_truth = [], [], []
    for chunk in range(W.LIVE_SIM_CHUNKS):
        config, scene, truth = W.write_cycle_inputs("live-udp", seed, chunk, W.LIVE_CHUNK_FRAMES, work)
        capture, fps, spans = simulate(work, f"sim_{chunk}", config, scene, len(truth), trace)
        scenes.append(scene)
        captures.append(capture)
        period_truth += truth
        run.sim_fps.append(fps)
        if spans is not None:
            run.sim_spans.append(spans)
    k = len(period_truth)
    n = max(round(seconds * W.LIVE_FPS), 20)
    if trace:
        # Half the frames untraced and half traced, for the overhead ratio.
        n = math.ceil(n / 2)
    truth = [period_truth[i % k] for i in range(n)]
    stream(run, work, "live", config, captures, truth, n, seed, trace=False)
    if trace:
        stream(run, work, "live_traced", config, captures, truth, n, seed, trace=True)
    for chunk, scene in enumerate(scenes):
        _, fps, _ = simulate(work, f"resim_{chunk}", config, scene, W.LIVE_CHUNK_FRAMES, False)
        run.sim_fps.append(fps)
    run.setup += setup_samples(work, probe, SETUP_PROBES - SETUP_PROBES // 2, warm_up=False)
    run.notes.append(f"{n} frames per stream at {W.LIVE_FPS:g} frames/s")
    return run


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    work = WORK_ROOT / f"{workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        if workload == "live-udp":
            return live(seed, seconds, trace, work)
        return offline(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def summary(workload: str, run: Run, trace: bool) -> dict:
    metrics = run.per_layer() if trace else run.end_to_end()
    for note in run.notes:
        print(f"# {workload}: {note}")
    for reason in run.failures[:20]:
        print(f"# {workload}: FAILED {reason}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def print_table(results: dict[str, dict], trace: bool):
    """End-to-end metrics: one row per workload. Per-layer: one row per metric."""
    units = {m: u for m, u, _ in layers.PER_LAYER} if trace else dict(END_TO_END)
    units["failed_ratio"] = "ratio"
    labels = {name: f"{name} [{unit}]" for name, unit in units.items()}

    def value(res, name):
        if name == "failed_ratio":
            return res["failed"] / res["attempted"]
        return res["metrics"][name]["value"]

    if trace:
        width = max(map(len, labels.values()))
        print(f"{'metric':<{width}}" + "".join(f" {w:>16}" for w in results))
        for name, label in labels.items():
            print(f"{label:<{width}}" + "".join(f" {value(r, name):>16.6g}" for r in results.values()))
    else:
        print(f"{'workload':<16}" + "".join(f" {label}" for label in labels.values()))
        for workload, res in results.items():
            print(f"{workload:<16}" + "".join(
                f" {value(res, name):>{len(label)}.6g}" for name, label in labels.items()))


def print_breakdown(workload: str, run: Run):
    rows = layers.process_frame_breakdown(run.sut_spans)
    if rows:
        print(f"# {workload}: pipeline.process_frame breakdown, mean ms/frame")
        for name, ms in rows:
            print(f"#   {name:<34} {ms:9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "radarkit" / "cli.py").is_file():
        print(f"no radarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, trace)
            results[name] = summary(name, run, trace)
            if trace:
                print_breakdown(name, run)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print_table(results, trace)
    for res in results.values():
        res["metrics"] = {k: v for k, v in res["metrics"].items() if k not in layers.TABLE_ONLY}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
