import functools
import json
import socket
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarkit import (
    AoaMethod,
    CfarParams,
    ConfigError,
    DataCube,
    NoiseSpec,
    PipelineConfig,
    PipelineError,
    PointTarget,
    derived_params,
    iter_pipeline,
    pipeline_config_from_dict,
    process_frame,
    run_pipeline,
    WindowKind,
    deinterleave,
    serialize_cube,
    synthesize_capture,
    synthesize_frame,
    to_db,
    window,
)
import radarkit.cli
import radarkit.detect
import radarkit.pipeline
from radarkit.capture import (
    CaptureListener,
    CapturePacket,
    read_capture_file,
    write_capture_file,
)
from radarkit.capture import reassemble
from radarkit.simulate import packetize
from radarkit.cli import main
from radarkit.detect import WindowError, log_gabor_filter

from conftest import C0, small_config

AMPLITUDE = 1024.0
NOISE_30DB = AMPLITUDE**2 / 10**3  # per-sample SNR 30 dB


def c0_dict() -> dict:
    return {
        "num_tx": 2,
        "num_rx": 4,
        "chirps_per_frame_per_tx": 128,
        "samples_per_chirp": 256,
        "sample_rate_hz": 10e6,
        "chirp_slope_hz_per_s": 3.0e13,
        "start_freq_hz": 77e9,
        "chirp_period_s": 60e-6,
        "rx_spacing_wavelengths": 0.5,
        "tx_spacing_wavelengths": 2.0,
    }


def pipeline_dict(**overrides) -> dict:
    d = {"radar": c0_dict(), "seed": 1}
    d.update(overrides)
    return d


def scene_dict(seed=0, n_frames=2) -> dict:
    return {
        "noise_power": NOISE_30DB,
        "seed": seed,
        "n_frames": n_frames,
        "frames": [
            {
                "frame": i,
                "targets": [
                    {
                        "range_m": 10.0,
                        "velocity_m_s": 2.5367,
                        "azimuth_deg": 20.0,
                        "amplitude": AMPLITUDE,
                    }
                ],
            }
            for i in range(n_frames)
        ],
    }


def test_pipeline_config_from_dict_round_trip():
    cfg = pipeline_config_from_dict(
        pipeline_dict(
            range_window="hamming",
            doppler_window="blackman",
            range_cfar={"guard_cells": 3, "train_cells": 10, "pfa": 1e-5},
            aoa_method="music",
            music_n_sources=2,
            accumulation="coherent_sum",
            log_gabor={"enabled": True, "f0_cycles": 0.2, "sigma_ratio": 0.4},
        )
    )
    assert cfg.radar == C0
    assert cfg.aoa_method is AoaMethod.MUSIC
    assert cfg.range_cfar.train_cells == 10
    assert cfg.log_gabor.enabled
    assert cfg.config_sha256() == pipeline_config_from_dict(
        pipeline_dict(
            range_window="hamming",
            doppler_window="blackman",
            range_cfar={"guard_cells": 3, "train_cells": 10, "pfa": 1e-5},
            aoa_method="music",
            music_n_sources=2,
            accumulation="coherent_sum",
            log_gabor={"enabled": True, "f0_cycles": 0.2, "sigma_ratio": 0.4},
        )
    ).config_sha256()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(bogus=1),
        lambda d: d["radar"].update(bogus=1),
        lambda d: d.update(range_cfar={"train_cells": 4, "bogus": 2}),
        lambda d: d.update(log_gabor={"enabled": True, "bogus": 3}),
        lambda d: d.pop("radar"),
    ],
)
def test_unknown_or_missing_keys_rejected(mutate):
    d = pipeline_dict()
    mutate(d)
    with pytest.raises(ConfigError):
        pipeline_config_from_dict(d)


def test_bad_enum_values_rejected():
    with pytest.raises(ValueError):
        pipeline_config_from_dict(pipeline_dict(range_window="tukey"))
    with pytest.raises(ConfigError):
        pipeline_config_from_dict(pipeline_dict(aoa_method="esprit"))


def _one_target_frames(n_frames, seed0=0):
    return [
        synthesize_frame(
            C0,
            [PointTarget(10.0, 2.5367, 20.0, AMPLITUDE)],
            NoiseSpec(NOISE_30DB, seed0 + i),
            i,
        )
        for i in range(n_frames)
    ]


def test_run_pipeline_single_target_fft(c0):
    cfg = PipelineConfig(radar=c0)
    dp = derived_params(c0)
    results = run_pipeline(cfg, _one_target_frames(1))
    assert len(results) == 1
    cloud = results[0].point_cloud
    assert len(cloud) == 1
    p = cloud.points[0]
    assert abs(p.range_m - 10.0) <= dp.range_resolution_m / 2
    assert abs(p.radial_velocity_m_s - 2.5367) <= dp.velocity_resolution_m_s / 2
    assert abs(p.azimuth_deg - 20.0) <= 2.0
    assert results[0].power_map_db.shape == (128, 256)


@pytest.mark.parametrize("method", ["bartlett", "capon", "music"])
def test_run_pipeline_covariance_methods(c0, method):
    cfg = pipeline_config_from_dict(pipeline_dict(aoa_method=method))
    results = run_pipeline(cfg, _one_target_frames(1))
    cloud = results[0].point_cloud
    assert len(cloud) == 1
    assert abs(cloud.points[0].azimuth_deg - 20.0) <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_gabor_chain_finds_the_targets_and_no_noise(c0, seed):
    # The filter acts on the dB map; CFAR reads its linear power, which has
    # no negative cells, and the RD outputs hold the filtered dB map.
    cfg = pipeline_config_from_dict(pipeline_dict(log_gabor={"enabled": True}))
    dp = derived_params(c0)
    targets = [PointTarget(10.0, 2.5367, 20.0, amplitude=1000.0),
               PointTarget(30.0, -3.8, -10.0, amplitude=1000.0)]
    cube = synthesize_frame(c0, targets, NoiseSpec(1000.0, seed))
    result = process_frame(cfg, cube)
    plain = process_frame(PipelineConfig(radar=c0), cube).power_map_db
    assert np.array_equal(result.power_map_db, log_gabor_filter(
        plain, cfg.log_gabor.f0_cycles, cfg.log_gabor.sigma_ratio))
    points = sorted(result.point_cloud.points, key=lambda p: p.range_m)
    assert len(points) == len(targets)
    for p, t in zip(points, targets):
        assert abs(p.range_m - t.range_m) <= dp.range_resolution_m / 2
        assert abs(p.radial_velocity_m_s - t.radial_velocity_m_s) <= dp.velocity_resolution_m_s / 2
        assert abs(p.azimuth_deg - t.azimuth_deg) <= 1.0
    noise_only = synthesize_frame(c0, [], NoiseSpec(1000.0, seed))
    assert len(process_frame(cfg, noise_only).point_cloud) == 0


def test_run_pipeline_empty_scene(c0):
    cfg = PipelineConfig(radar=c0)
    frames = synthesize_capture(c0, [], NoiseSpec(0.0, 0), 3)
    results = run_pipeline(cfg, frames)
    assert all(len(r.point_cloud) == 0 for r in results)


def test_run_pipeline_worker_count_does_not_change_results(c0):
    cfg = PipelineConfig(radar=c0)
    frames = _one_target_frames(4)
    serial = run_pipeline(cfg, frames, workers=1)
    parallel = run_pipeline(cfg, frames, workers=4)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.power_map_db, b.power_map_db)
        assert a.point_cloud == b.point_cloud


def test_iter_pipeline_serves_the_run_from_one_pool(c0, monkeypatch):
    cfg = PipelineConfig(radar=c0)
    frames = _one_target_frames(2) * 3
    threads = set()
    frame = radarkit.pipeline.process_frame

    def recording(cfg, cube):
        threads.add(threading.current_thread().name)
        return frame(cfg, cube)

    monkeypatch.setattr(radarkit.pipeline, "process_frame", recording)
    taken = []

    def source():
        for cube in frames:
            taken.append(cube.frame_index)
            yield cube

    results = iter_pipeline(cfg, source(), workers=2)
    first = next(results)
    assert len(taken) == 2  # frames are taken only as results are asked for
    rest = list(results)
    assert len(threads) <= 2  # one pool of two threads, not one per pair of frames
    assert [r.frame_index for r in [first, *rest]] == [c.frame_index for c in frames]


def test_back_to_back_frames_on_one_thread_leave_earlier_results(c0):
    cfg = PipelineConfig(radar=c0)
    first = _one_target_frames(1)[0]
    second = synthesize_frame(
        c0, [PointTarget(20.0, -1.0, -10.0, AMPLITUDE)], NoiseSpec(NOISE_30DB, 9), 1
    )
    a = process_frame(cfg, first)
    kept_map, kept_points = a.power_map_db.copy(), list(a.point_cloud.points)
    b = process_frame(cfg, second)
    assert np.array_equal(a.power_map_db, kept_map)
    assert list(a.point_cloud.points) == kept_points
    assert not np.array_equal(a.power_map_db, b.power_map_db)
    # A frame of another size in between gets its own buffers; the next C0
    # frame gives the same result as before.
    small = small_config(chirps=32, samples=64)
    data = np.random.default_rng(0).standard_normal((64, 2, 64)) + 0j
    process_frame(PipelineConfig(radar=small), DataCube(data, 0, small))
    again = process_frame(cfg, second)
    assert np.array_equal(again.power_map_db, b.power_map_db)
    assert again.point_cloud == b.point_cloud


def test_process_frame_allocates_less_than_a_cube_after_warm_up(c0):
    cfg = PipelineConfig(radar=c0)
    frames = _one_target_frames(2)
    process_frame(cfg, frames[0])  # allocates this thread's front-end buffers
    tracemalloc.start()
    try:
        process_frame(cfg, frames[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < frames[1].data.nbytes


def test_front_end_buffers_total_at_most_one_and_a_half_cubes(c0):
    cfg = PipelineConfig(radar=c0)
    frames = _one_target_frames(2)
    process_frame(cfg, frames[0])  # warm-up: allocates this thread's buffers
    process_frame(cfg, frames[1])
    held = sum(b.nbytes for b in radarkit.pipeline._thread.workspace)
    assert held <= 1.5 * frames[1].data.nbytes


def test_process_frame_traces_under_two_db_maps_after_warm_up(c0):
    cfg = PipelineConfig(radar=c0)  # FFT angles
    frames = _one_target_frames(2)
    process_frame(cfg, frames[0])  # allocates this thread's buffers and the CFAR plans
    tracemalloc.start()
    try:
        result = process_frame(cfg, frames[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The dB map handed to the writer is the one map-sized allocation.
    assert peak < 2 * result.power_map_db.nbytes  # 512 KiB on C0


def test_workspace_holds_one_cube_and_map_buffers(c0):
    cfg = PipelineConfig(radar=c0)
    frames = _one_target_frames(2)
    for cube in frames:
        result = process_frame(cfg, cube)
    cube_bytes, map_bytes = frames[1].data.nbytes, result.power_map_db.nbytes
    workspace = sum(b.nbytes for b in radarkit.pipeline._thread.workspace)
    assert workspace <= cube_bytes + 4 * map_bytes
    # The map buffers, CFAR's included, total less than a float64 cube (half
    # a complex cube): the power map is not accumulated through a |z|^2 cube.
    doppler_axis, range_axis, scratch = radarkit.detect._thread.cfar
    held = workspace - cube_bytes + scratch.nbytes
    held += sum(a.nbytes for a in doppler_axis + range_axis)
    assert held < cube_bytes / 2


@settings(max_examples=30, deadline=None)
@given(
    num_tx=st.integers(1, 3),
    chirps=st.integers(5, 12),
    range_kind=st.sampled_from(WindowKind),
    doppler_kind=st.sampled_from(WindowKind),
    seed=st.integers(0, 2**32 - 1),
)
def test_wire_and_complex_cubes_give_the_reference_front_end(
    num_tx, chirps, range_kind, doppler_kind, seed
):
    radar = small_config(num_tx=num_tx, num_rx=2, chirps=chirps, samples=16)
    cfg = PipelineConfig(
        radar=radar, range_window=range_kind, doppler_window=doppler_kind,
        range_cfar=CfarParams(guard_cells=1, train_cells=2),
        doppler_cfar=CfarParams(guard_cells=1, train_cells=1),
    )
    frame = synthesize_frame(radar, [PointTarget(12.0, 1.0, 10.0, 500.0)], NoiseSpec(50.0, seed))
    samples = np.rint(frame.data)  # on the int16 grid, so both forms hold the same samples
    complex_cube = DataCube(samples, 0, radar)
    wire_cube = deinterleave(serialize_cube(complex_cube), radar)
    # The former stage expressions.
    rc = np.fft.fft(samples * window(range_kind, 16), axis=-1)
    regrouped = rc.reshape(chirps, num_tx * 2, 16)
    rd_ref = np.fft.fftshift(
        np.fft.fft(regrouped * window(doppler_kind, chirps)[:, np.newaxis, np.newaxis], axis=0),
        axes=0,
    )
    map_ref = to_db(np.sum(np.abs(rd_ref) ** 2, axis=1))
    clouds = []
    for cube in (complex_cube, wire_cube):
        result = process_frame(cfg, cube)
        # The range-Doppler cube stays in this thread's cube buffer, in FFT
        # order along Doppler, until its next frame; the buffer is
        # antenna-major, (virtual_rx, Doppler, range).
        rd = radarkit.pipeline._thread.workspace[0].transpose(1, 0, 2)
        # Bit for bit, signed zeros included.
        assert rd.tobytes() == np.fft.ifftshift(rd_ref, axes=0).tobytes()
        assert result.power_map_db.tobytes() == map_ref.tobytes()
        clouds.append(result.point_cloud)
    assert clouds[0] == clouds[1]
    assert "data" not in vars(wire_cube)  # the pipeline never decodes a wire cube


def _failing_stage(*args):
    raise WindowError("stage failed")


def test_run_pipeline_attaches_frame_index_to_errors(c0, monkeypatch):
    # Config values that would fail at stage time are rejected at load, so a
    # stage is made to fail instead.
    monkeypatch.setattr("radarkit.pipeline.cfar_2d", _failing_stage)
    frames = _one_target_frames(2)
    with pytest.raises(PipelineError, match="frame 1"):
        run_pipeline(PipelineConfig(radar=c0), frames[1:])


def test_process_frame_raises_pipeline_error_with_frame_index(c0, monkeypatch):
    monkeypatch.setattr("radarkit.pipeline.cfar_2d", _failing_stage)
    with pytest.raises(PipelineError, match="frame 1") as e:
        process_frame(PipelineConfig(radar=c0), _one_target_frames(2)[1])
    assert e.value.frame_index == 1


def _write_json(path, d):
    path.write_text(json.dumps(d), encoding="utf-8")


def test_cli_simulate_process_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    scene_path = tmp_path / "scene.json"
    capture_path = tmp_path / "capture.orad"
    out_dir = tmp_path / "out"
    _write_json(cfg_path, pipeline_dict())
    _write_json(scene_path, scene_dict())

    assert main(["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
                 "--out", str(capture_path)]) == 0
    assert capture_path.exists()
    assert main(["process", "--config", str(cfg_path), "--in", str(capture_path),
                 "--out", str(out_dir)]) == 0

    for i in range(2):
        points = (out_dir / f"frame_{i}_points.csv").read_text().strip().split("\n")
        assert len(points) == 2  # header + one detection
        fields = points[1].split(",")
        assert float(fields[1]) == pytest.approx(10.0, abs=0.098)
        assert float(fields[3]) == pytest.approx(2.5367, abs=0.064)
        assert float(fields[2]) == pytest.approx(20.0, abs=2.0)
        assert (out_dir / f"frame_{i}_rd.csv").exists()
        assert (out_dir / f"frame_{i}_rd.pgm").exists()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["seed"] == 1
    assert "config_sha256" in manifest and "versions" in manifest


def test_cli_process_rejects_mismatched_radar_config(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    scene_path = tmp_path / "scene.json"
    capture_path = tmp_path / "capture.orad"
    _write_json(cfg_path, pipeline_dict())
    _write_json(scene_path, scene_dict(n_frames=1))
    main(["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
          "--out", str(capture_path)])
    other = pipeline_dict()
    other["radar"]["chirp_period_s"] = 70e-6  # loads, but is not the capture's radar
    other_path = tmp_path / "other.json"
    _write_json(other_path, other)
    code = main(["process", "--config", str(other_path), "--in", str(capture_path),
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err.strip())
    assert err["error"] == "ConfigError"
    assert "does not match" in err["message"]


def test_cli_errors_are_single_line_json(tmp_path, capsys):
    code = main(["process", "--config", str(tmp_path / "missing.json"),
                 "--in", "x", "--out", "y"])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.strip().split("\n")) == 1
    err = json.loads(captured.err.strip())
    assert "error" in err and "message" in err


def test_cli_replay_listen_loopback(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "live"
    code, _ = _listen_to_replay(tmp_path, monkeypatch, out_dir, n_frames=2)
    assert code == 0
    drops = json.loads((out_dir / "drops.json").read_text())
    assert len(drops) == 2
    assert all(d["packets_dropped"] == 0 for d in drops)
    assert (out_dir / "frame_0_points.csv").exists()
    assert (out_dir / "frame_1_points.csv").exists()


def test_cli_replay_with_loss_reports_drops(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "lossy"
    # Ask for 2 of the 3 replayed frames, so that later seqs, not the quiet
    # socket, give up every loss in frames 1-2.
    code, _ = _listen_to_replay(
        tmp_path, monkeypatch, out_dir, n_frames=3,
        listen_args=["--frames", "2", "--idle-timeout-s", "15", "--window", "16"],
        replay_args=["--loss", "0.01", "--seed", "5"])
    assert code == 0
    drops = json.loads((out_dir / "drops.json").read_text())
    assert len(drops) == 2
    assert sum(d["packets_dropped"] for d in drops) > 0
    assert all(
        d["bytes_zero_filled"] == 1456 * d["packets_dropped"] for d in drops
    )


def test_cli_listen_writes_the_last_frame_of_a_lossy_stream(tmp_path, monkeypatch,
                                                           capsys):
    # With this seed a packet lost near the end of the stream is given up by
    # no later seq; the quiet socket gives it up before the idle timeout, so
    # the last frame is written.
    out_dir = tmp_path / "lossy"
    code, _ = _listen_to_replay(
        tmp_path, monkeypatch, out_dir, n_frames=2,
        replay_args=["--loss", "0.01", "--reorder", "8", "--seed", "8"])
    assert code == 0
    for i in range(2):
        for name in (f"frame_{i}_points.csv", f"frame_{i}_rd.csv", f"frame_{i}_rd.pgm"):
            assert (out_dir / name).is_file()
    assert len(json.loads((out_dir / "drops.json").read_text())) == 2
    assert "captured 2 frames" in capsys.readouterr().out


@pytest.mark.parametrize("stale", [True, False], ids=["stale_offset", "plausible_offset"])
def test_cli_listen_outlives_a_stray_seq_and_a_pause(tmp_path, monkeypatch, capsys,
                                                    stale):
    # After frame 0 comes one datagram of seq 10**6, then a pause past the
    # 0.2 s quiet flush, then frames 1-2. The stray's gap spans more than
    # 2 * window seqs, so the quiet flush leaves it pending and reads on.
    def send(capture_path, port):
        _, cubes = read_capture_file(capture_path)
        packets = packetize(list(cubes))
        end = packets[-1].byte_offset + len(packets[-1].payload)
        stray = CapturePacket(10**6, 0 if stale else end, b"zzzz")
        cut = next(i for i, p in enumerate(packets) if p.byte_offset >= end // 3)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for burst in (packets[:cut] + [stray], packets[cut:]):
                for i, pkt in enumerate(burst):
                    sock.sendto(pkt.encode(), ("127.0.0.1", port))
                    if i % 64 == 63:
                        time.sleep(0.0005)
                time.sleep(0.6)

    out_dir = tmp_path / "live"
    code, _ = _listen_to_replay(tmp_path, monkeypatch, out_dir, n_frames=3, send=send)
    assert code == 0
    drops = json.loads((out_dir / "drops.json").read_text())
    assert len(drops) == 3
    assert all(d["packets_dropped"] == 0 for d in drops)
    assert "captured 3 frames" in capsys.readouterr().out


@pytest.mark.parametrize("idle_timeout", [None, "2"], ids=["no_timeout", "timeout"])
@pytest.mark.parametrize(
    "datagram",
    [b"abc", CapturePacket(seq=0, byte_offset=7, payload=b"x").encode()],
    ids=["short_datagram", "byte_offset_conflict"],
)
def test_cli_listen_thread_error_is_one_json_line(tmp_path, capsys, datagram,
                                                  idle_timeout):
    cfg_path = tmp_path / "pipeline.json"
    _write_json(cfg_path, pipeline_dict())
    probe = CaptureListener(0, C0, window=2, host="127.0.0.1")
    port = probe.port
    probe.stop()

    argv = ["listen", "--config", str(cfg_path), "--port", str(port),
            "--out", str(tmp_path / "live")]
    if idle_timeout is not None:
        argv += ["--idle-timeout-s", idle_timeout]
    rc = {}
    listener = threading.Thread(
        target=lambda: rc.setdefault("code", main(argv)), daemon=True)
    listener.start()
    # Resend until the listener has bound its port and ended on the datagram.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for _ in range(100):
            sock.sendto(datagram, ("127.0.0.1", port))
            listener.join(timeout=0.1)
            if not listener.is_alive():
                break
    listener.join(timeout=10)
    assert not listener.is_alive()
    assert rc["code"] == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "TransportError"


def test_cli_listen_socket_error_is_one_json_line(tmp_path, monkeypatch, capsys):
    # The socket fails once frame 0 is written: listen exits 1, not as if
    # the sender had stopped, and writes neither drops.json nor the manifest.
    listeners = []
    init = CaptureListener.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        listeners.append(self)

    def send(capture_path, port):
        _, cubes = read_capture_file(capture_path)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for pkt in packetize([next(cubes)]):
                sock.sendto(pkt.encode(), ("127.0.0.1", port))
        for _ in range(300):
            if (out_dir / "frame_0_rd.pgm").exists():
                break
            time.sleep(0.05)
        listeners[-1]._sock.close()

    monkeypatch.setattr(CaptureListener, "__init__", recording_init)
    out_dir = tmp_path / "live"
    code, _ = _listen_to_replay(tmp_path, monkeypatch, out_dir, send=send)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OSError"
    assert (out_dir / "frame_0_rd.pgm").is_file()
    assert not (out_dir / "drops.json").exists()
    assert not (out_dir / "run_manifest.json").exists()


def _listen_to_replay(tmp_path, monkeypatch, out_dir, n_frames=3, listen_args=(),
                      replay_args=(), send=None) -> tuple[int, int]:
    """Run ``listen`` for ``n_frames`` frames on a thread, replay that many
    simulated frames into it once it is bound; return (exit code, port).

    ``listen_args`` follow listen's ``--frames n_frames --idle-timeout-s 10
    --window 8``, so they override them; ``replay_args`` follow replay's flags.
    ``send(capture_path, port)``, if given, sends the frames instead of replay.
    """
    cfg_path = tmp_path / "pipeline.json"
    scene_path = tmp_path / "scene.json"
    capture_path = tmp_path / "capture.orad"
    _write_json(cfg_path, pipeline_dict())
    _write_json(scene_path, scene_dict(n_frames=n_frames))
    assert main(["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
                 "--out", str(capture_path)]) == 0
    probe = CaptureListener(0, C0, window=2, host="127.0.0.1")
    port = probe.port
    probe.stop()
    bound = threading.Event()
    init = CaptureListener.__init__

    def signalling_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bound.set()

    monkeypatch.setattr(CaptureListener, "__init__", signalling_init)
    rc = []
    listener = threading.Thread(target=lambda: rc.append(main(
        ["listen", "--config", str(cfg_path), "--port", str(port), "--out", str(out_dir),
         "--frames", str(n_frames), "--idle-timeout-s", "10", "--window", "8",
         *listen_args])),
        daemon=True)
    listener.start()
    assert bound.wait(timeout=30)
    if send is not None:
        send(capture_path, port)
    else:
        assert main(["replay", "--in", str(capture_path),
                     "--dest", f"127.0.0.1:{port}", *replay_args]) == 0
    listener.join(timeout=40)
    assert not listener.is_alive()
    return rc[0], port


def test_cli_listen_of_a_reordered_replay_writes_what_process_writes(tmp_path, monkeypatch,
                                                                    capsys):
    live, offline = tmp_path / "live", tmp_path / "offline"
    code, _ = _listen_to_replay(tmp_path, monkeypatch, live, replay_args=["--reorder", "8"])
    assert code == 0
    assert main(["process", "--config", str(tmp_path / "pipeline.json"),
                 "--in", str(tmp_path / "capture.orad"), "--out", str(offline)]) == 0
    names = sorted(p.name for p in offline.iterdir())
    assert len(names) == 3 * 3 + 1  # three files a frame and run_manifest.json
    assert sorted(p.name for p in live.iterdir()) == sorted(names + ["drops.json"])
    for name in names:
        assert (live / name).read_bytes() == (offline / name).read_bytes(), name
    drops = json.loads((live / "drops.json").read_text())
    assert not any(d["packets_dropped"] or d["bytes_zero_filled"] for d in drops)


def test_cli_listen_failed_write_ends_the_run(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "live"
    (out_dir / "frame_1_rd.csv").mkdir(parents=True)
    code, port = _listen_to_replay(tmp_path, monkeypatch, out_dir)
    # The listener is stopped on the error path, so its port binds again at once.
    CaptureListener(port, C0, window=2).stop()
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "IsADirectoryError"
    for name in ("frame_0_points.csv", "frame_0_rd.csv", "frame_0_rd.pgm"):
        assert (out_dir / name).is_file()
    assert not (out_dir / "run_manifest.json").exists()
    assert not (out_dir / "drops.json").exists()


def test_cli_listen_writes_each_frame_once_in_order(tmp_path, monkeypatch, capsys):
    write = radarkit.cli.write_frame_outputs
    writes = []

    def recording_write(out_dir, result):
        writes.append(result.frame_index)
        write(out_dir, result)

    monkeypatch.setattr(radarkit.cli, "write_frame_outputs", recording_write)
    out_dir = tmp_path / "live"
    code, _ = _listen_to_replay(tmp_path, monkeypatch, out_dir)
    assert code == 0
    assert writes == [0, 1, 2]
    out = capsys.readouterr().out.splitlines()  # listen's lines and replay's
    assert [line.split(":")[0] for line in out if line.startswith("frame ")] == [
        "frame 0", "frame 1", "frame 2"]
    assert f"captured 3 frames -> {out_dir}" in out
    assert len(json.loads((out_dir / "drops.json").read_text())) == 3
    assert (out_dir / "run_manifest.json").is_file()


def test_cli_listen_reports_the_frames_dropped_for_backpressure(tmp_path, monkeypatch,
                                                                capsys):
    # A queue of one frame, and a first frame that is processed only once
    # all five frames are in: of frames 1-4, all but the newest are dropped.
    monkeypatch.setattr(radarkit.capture, "_QUEUE_FRAMES", 1)
    all_in = threading.Event()
    hand_over = radarkit.capture._FrameStream._hand_over

    def signalling_hand_over(self):
        hand_over(self)
        if self._cube.frame_index == 5:  # the frame after the last one
            all_in.set()

    process = radarkit.pipeline.process_frame

    def stalled_process(cfg, cube):
        if cube.frame_index == 0:
            assert all_in.wait(timeout=30)
        return process(cfg, cube)

    monkeypatch.setattr(radarkit.capture._FrameStream, "_hand_over", signalling_hand_over)
    monkeypatch.setattr(radarkit.pipeline, "process_frame", stalled_process)
    out_dir = tmp_path / "live"
    code, _ = _listen_to_replay(tmp_path, monkeypatch, out_dir, n_frames=5,
                                listen_args=["--frames", "2"])
    assert code == 0
    written = sorted(int(p.name.split("_")[1]) for p in out_dir.glob("frame_*_points.csv"))
    assert written == [0, 4]
    out = [line for line in capsys.readouterr().out.splitlines()
           if not line.startswith("replayed ")]  # listen's lines only
    captured = out.index(f"captured 2 frames -> {out_dir}")
    missing = written[-1] + 1 - len(written)
    assert out[captured + 1] == f"{missing} frames dropped for backpressure"


def test_cli_bench_table(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    _write_json(cfg_path, pipeline_dict(output_dir=str(tmp_path / "benchout")))
    assert main(["bench", "--config", str(cfg_path), "--frames", "4"]) == 0
    out = capsys.readouterr().out
    for stage in ("range_fft", "doppler_fft", "power_map", "cfar_2d", "group_peaks",
                  "aoa", "point_cloud", "end_to_end"):
        assert stage in out
    assert "frames/s" in out
    assert (tmp_path / "benchout" / "bench.txt").exists()


def test_cli_bench_stage_rows_sum_to_at_most_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    _write_json(cfg_path, pipeline_dict())
    assert main(["bench", "--config", str(cfg_path), "--frames", "4",
                 "--workers", "1"]) == 0
    rows = dict(
        line.split() for line in capsys.readouterr().out.splitlines()[1:-1]
    )
    end_to_end = float(rows.pop("end_to_end"))
    assert list(rows) == ["range_fft", "doppler_fft", "power_map", "cfar_2d",
                          "group_peaks", "aoa", "point_cloud"]
    # Each row is printed rounded to 0.001 ms.
    assert sum(float(ms) for ms in rows.values()) <= end_to_end + 0.0005 * len(rows)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["replay", "--dest", "localhost"], "ConfigError"),
        (["replay", "--dest", "127.0.0.1:70000"], "ConfigError"),
        (["listen", "--port", "70000"], "BindError"),
        (["listen", "--port", "0", "--window", "0"], "ConfigError"),
        (["replay", "--dest", "127.0.0.1:9", "--seed", "-1"], "ConfigError"),
        (["replay", "--dest", "127.0.0.1:9", "--loss", "-0.5"], "ConfigError"),
        (["replay", "--dest", "127.0.0.1:9", "--loss", "1.5"], "ConfigError"),
        (["replay", "--dest", "127.0.0.1:9", "--reorder", "-1"], "ConfigError"),
        (["listen", "--port", "0", "--idle-timeout-s", "-1"], "ConfigError"),
        (["listen", "--port", "0", "--frames", "-1"], "ConfigError"),
        # Checked before the port is bound: an unbindable port is not reached.
        (["listen", "--port", "70000", "--frames", "0"], "ConfigError"),
        (["listen", "--port", "70000", "--idle-timeout-s", "inf"], "ConfigError"),
        (["listen", "--port", "70000", "--idle-timeout-s", "1e300"], "ConfigError"),
        (["bench", "--workers", "-1"], "ConfigError"),
        (["bench", "--workers", "0"], "ConfigError"),
        # Checked before the capture, which does not exist, is read.
        (["process", "--workers", "-1"], "ConfigError"),
        (["process", "--workers", "0"], "ConfigError"),
    ],
    ids=["dest_without_port", "dest_port_too_big", "listen_port_too_big",
         "listen_window_zero", "replay_seed_negative", "replay_loss_negative",
         "replay_loss_above_one", "replay_reorder_negative", "listen_idle_timeout_negative",
         "listen_frames_negative", "listen_frames_zero_before_bind",
         "listen_idle_timeout_inf_before_bind", "listen_idle_timeout_huge_before_bind",
         "bench_workers_negative", "bench_workers_zero", "process_workers_negative",
         "process_workers_zero"],
)
def test_cli_bad_network_args_are_one_json_line(tmp_path, capsys, argv, error):
    # The row's own arguments go last: argparse keeps the last value of a flag.
    if argv[0] == "replay":
        capture_path = tmp_path / "capture.orad"
        write_capture_file(capture_path, C0, [])
        defaults = ["--in", str(capture_path)]
    else:
        cfg_path = tmp_path / "pipeline.json"
        _write_json(cfg_path, pipeline_dict())
        defaults = ["--config", str(cfg_path)]
    if argv[0] == "listen":
        defaults += ["--out", str(tmp_path / "live"), "--frames", "1",
                     "--idle-timeout-s", "0.1"]
    if argv[0] == "process":
        defaults += ["--in", str(tmp_path / "missing.orad"), "--out", str(tmp_path / "out")]
    argv = argv[:1] + defaults + argv[1:]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize(
    "n_frames,edit,error",
    [
        (1, lambda scene: scene["frames"][0]["targets"][0].update(rcs=1.0), "ConfigError"),
        (1, lambda scene: scene["frames"][0].update(frame=1), "SimError"),
        (2, lambda scene: scene["frames"][1].update(frame=0), "SimError"),
        (1, lambda scene: scene.update(frames={}), "ConfigError"),
    ],
    ids=["unknown_target_key", "frame_outside_n_frames", "frame_listed_twice",
         "frames_not_a_list"],
)
def test_bad_scene_is_one_json_line_and_writes_no_capture(tmp_path, capsys, n_frames, edit,
                                                          error):
    cfg_path = tmp_path / "pipeline.json"
    scene_path = tmp_path / "scene.json"
    _write_json(cfg_path, pipeline_dict())
    bad_scene = scene_dict(n_frames=n_frames)
    edit(bad_scene)
    _write_json(scene_path, bad_scene)
    out = tmp_path / "c.orad"
    code = main(["simulate", "--config", str(cfg_path), "--scene", str(scene_path),
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not out.exists()


def test_cli_listen_without_an_output_directory_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    _write_json(cfg_path, pipeline_dict())
    assert main(["listen", "--config", str(cfg_path), "--port", "0", "--frames", "1",
                 "--idle-timeout-s", "0.1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("no output directory")


AHEAD_RADAR = small_config(num_tx=2, num_rx=4, chirps=32, samples=64)  # 64 rows of 1 KiB


def _ahead_capture(n_frames, lost_seq=None):
    """Wire bytes of ``n_frames`` one-target frames, as the listener assembles
    them: the packet of ``lost_seq``, if given, is lost and zero-filled."""
    cubes = [synthesize_frame(AHEAD_RADAR, [PointTarget(12.0, 1.0, 10.0, 500.0)],
                              NoiseSpec(50.0, 30 + i), i) for i in range(n_frames)]
    packets = packetize(cubes)
    stream, report = reassemble([p for p in packets if p.seq != lost_seq], window=4)
    assert report.packets_dropped == (lost_seq is not None)
    n = len(stream) // n_frames
    return packets, [stream[i * n:(i + 1) * n] for i in range(n_frames)]


def _reference(cfg, frame: bytes, frame_index=0):
    """process_frame of the complete frame: its result and the cube it leaves."""
    result = process_frame(cfg, deinterleave(frame, cfg.radar, frame_index))
    return result, radarkit.pipeline._thread.workspace[0].tobytes()


def _assert_same(cfg, result, reference):
    ref_result, ref_cube = reference
    assert result.power_map_db.tobytes() == ref_result.power_map_db.tobytes()
    assert result.point_cloud == ref_result.point_cloud
    assert radarkit.pipeline._thread.workspace[0].tobytes() == ref_cube


@settings(max_examples=25, deadline=None)
@given(gap=st.booleans(), data=st.data())
def test_rows_done_ahead_give_the_complete_frame_result(gap, data):
    # Seq 20 of the 46 of frame 0 carries its rows 28-29.
    cfg = PipelineConfig(radar=AHEAD_RADAR)
    frame = _ahead_capture(2, lost_seq=20 if gap else None)[1][0]
    if gap:
        assert not any(frame[20 * 1456:21 * 1456])
    reference = _reference(cfg, frame)
    row = len(frame) // 64
    marks = sorted(data.draw(st.lists(st.integers(0, 64 * row - 1), max_size=5)))
    buf = bytearray(len(frame))
    cube = deinterleave(buf, AHEAD_RADAR, 0)
    for arrived in marks:  # bytes in, at any byte; only whole rows are final
        buf[:arrived] = frame[:arrived]
        radarkit.pipeline.range_ahead(cfg, cube, arrived // row)
    buf[:] = frame
    with mock.patch.object(radarkit.pipeline, "_range_stage",
                           wraps=radarkit.pipeline._range_stage) as range_stage:
        result = process_frame(cfg, cube)
    # Rows are done ahead in whole slow-time rows, pairs of chirp rows here.
    done = marks[-1] // row // 2 * 2 if marks else 0
    assert range_stage.call_args.args[3:] == (done, 64)
    _assert_same(cfg, result, reference)


@settings(max_examples=30, deadline=None)
@given(num_tx=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_rows_ahead_at_any_row_give_the_complete_frame_result(num_tx, seed, data):
    # Row marks anywhere, also inside a slow-time row of 2 or 3 TX chirps.
    radar = small_config(num_tx=num_tx, num_rx=2, chirps=8, samples=16)
    cfg = PipelineConfig(radar=radar, range_cfar=CfarParams(guard_cells=1, train_cells=2),
                         doppler_cfar=CfarParams(guard_cells=1, train_cells=1, circular=True))
    frame = serialize_cube(synthesize_frame(
        radar, [PointTarget(12.0, 1.0, 10.0, 500.0)], NoiseSpec(50.0, seed)))
    reference = _reference(cfg, frame)
    n_rows = 8 * num_tx
    row = len(frame) // n_rows
    marks = data.draw(st.lists(st.integers(0, n_rows), max_size=4))
    if num_tx > 1:  # at least one mark that is not a multiple of num_tx
        marks.append(data.draw(st.integers(0, 7)) * num_tx + data.draw(st.integers(1, num_tx - 1)))
    buf = bytearray(len(frame))
    cube = deinterleave(buf, radar, 0)
    for rows in sorted(marks):
        buf[:rows * row] = frame[:rows * row]
        radarkit.pipeline.range_ahead(cfg, cube, rows)
    buf[:] = frame
    _assert_same(cfg, process_frame(cfg, cube), reference)


def test_rows_done_ahead_stay_with_their_buffer():
    # Two listeners in one thread, both at frame 0: rows done ahead for the
    # first one's frame in progress must not stand in for the second's frame.
    cfg = PipelineConfig(radar=AHEAD_RADAR)
    ahead = functools.partial(radarkit.pipeline.range_ahead, cfg)
    packets, (frame_a,) = _ahead_capture(1)
    other = [synthesize_frame(AHEAD_RADAR, [PointTarget(20.0, -1.0, -10.0, 800.0)],
                              NoiseSpec(50.0, 99), 0)]
    a, b = (radarkit.capture._FrameStream(AHEAD_RADAR, window=4) for _ in range(2))
    for pkt in packets[:30]:
        a._receive(pkt.encode())
    assert list(a.frames(idle_timeout_s=0, on_rows=ahead)) == []
    assert radarkit.pipeline._thread.ahead[2] > 0  # rows of a's frame 0 are done
    for pkt in packetize(other):
        b._receive(pkt.encode())
    [(cube_b, _)] = b.frames(idle_timeout_s=0, on_rows=ahead)
    result_b = process_frame(cfg, cube_b)
    _assert_same(cfg, result_b, _reference(cfg, serialize_cube(other[0])))
    for pkt in packets[30:]:
        a._receive(pkt.encode())
    [(cube_a, _)] = a.frames(idle_timeout_s=0, on_rows=ahead)
    result_a = process_frame(cfg, cube_a)
    _assert_same(cfg, result_a, _reference(cfg, frame_a))


def test_listen_consumer_processes_ahead_through_a_given_up_gap():
    # The consumer loop of listen, without the socket: datagrams arrive in
    # bursts; between them the final rows of the frame in progress are range
    # processed, and each completed frame is processed before the next burst.
    cfg = PipelineConfig(radar=AHEAD_RADAR)
    packets, frames = _ahead_capture(3, lost_seq=66)  # frame 1's rows 29-31
    stream = radarkit.capture._FrameStream(AHEAD_RADAR, window=4)
    ahead = functools.partial(radarkit.pipeline.range_ahead, cfg)
    results, starts = [], []
    with mock.patch.object(radarkit.pipeline, "_range_stage",
                           wraps=radarkit.pipeline._range_stage) as range_stage:
        sent = [p.encode() for p in packets if p.seq != 66]
        for k in range(0, len(sent), 7):
            for datagram in sent[k:k + 7]:
                stream._receive(datagram)
            for cube, _ in stream.frames(idle_timeout_s=0, on_rows=ahead):
                results.append(process_frame(cfg, cube))
                starts.append(range_stage.call_args.args[3])
    assert [r.frame_index for r in results] == [0, 1, 2]
    assert all(0 < start < 64 for start in starts)
    for i, result in enumerate(results):
        reference = _reference(cfg, frames[i], i)
        assert result.power_map_db.tobytes() == reference[0].power_map_db.tobytes()
        assert result.point_cloud == reference[0].point_cloud
