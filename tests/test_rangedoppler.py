import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radarkit import (
    Accumulation,
    DataCube,
    LengthError,
    NoiseSpec,
    PointTarget,
    ShapeError,
    WindowKind,
    accumulate_power,
    coherent_gain,
    derived_params,
    doppler_processing,
    power_map,
    range_processing,
    synthesize_frame,
    to_db,
    window,
    write_power_map_csv,
    write_power_map_pgm,
)
from radarkit.rangedoppler import DB_FLOOR, RangeDopplerCube, _encode_csv_rows

from conftest import brute_force_dft, small_config

NO_NOISE = NoiseSpec(0.0, 0)


def test_rectangular_window_is_identity():
    assert np.array_equal(window(WindowKind.RECTANGULAR, 8), np.ones(8))


def test_hann_endpoints_are_zero():
    for length in (2, 5, 64):
        w = window(WindowKind.HANN, length)
        assert w[0] == pytest.approx(0.0, abs=1e-15)
        assert w[-1] == pytest.approx(0.0, abs=1e-15)


def test_hamming_closed_form_length_4():
    # 0.54 - 0.46 cos(2 pi n / (L-1)) at n=1, L=4.
    w = window(WindowKind.HAMMING, 4)
    assert w[1] == pytest.approx(0.54 - 0.46 * math.cos(2 * math.pi / 3), rel=1e-12)


def test_windows_match_numpy_reference():
    # numpy implements the same symmetric closed forms: independent oracle.
    for length in (2, 3, 16, 129):
        assert np.allclose(window(WindowKind.HANN, length), np.hanning(length), atol=1e-15)
        assert np.allclose(window(WindowKind.HAMMING, length), np.hamming(length), atol=1e-15)
        assert np.allclose(window(WindowKind.BLACKMAN, length), np.blackman(length), atol=1e-15)


def test_windows_symmetric_and_bounded():
    for kind in WindowKind:
        w = window(kind, 33)
        assert np.allclose(w, w[::-1], atol=1e-15)
        assert w.max() <= 1.0 + 1e-15
        assert w.min() >= -1e-15  # blackman endpoints are ~0, never negative


def test_window_length_error():
    with pytest.raises(LengthError):
        window(WindowKind.HANN, 1)


def test_range_processing_zero_in_zero_out(c0):
    cube = synthesize_frame(c0, [], NO_NOISE)
    assert not range_processing(cube, WindowKind.HANN).any()


def test_range_processing_matches_brute_force_dft():
    cfg = small_config(num_tx=2, num_rx=2, chirps=2, samples=32)
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4, 2, 32)) + 1j * rng.standard_normal((4, 2, 32))
    cube = DataCube(data, 0, cfg)
    out = range_processing(cube, WindowKind.HAMMING)
    w = window(WindowKind.HAMMING, 32)
    for chirp in range(4):
        for rx in range(2):
            expected = brute_force_dft(data[chirp, rx] * w)
            err = np.linalg.norm(out[chirp, rx] - expected) / np.linalg.norm(expected)
            assert err < 1e-9


def test_range_processing_scalar_linearity(c0):
    cube = synthesize_frame(c0, [PointTarget(12.0, 1.0, 5.0)], NO_NOISE)
    scaled = DataCube(3.5 * cube.data, 0, c0)
    a = range_processing(cube, WindowKind.HANN)
    b = range_processing(scaled, WindowKind.HANN)
    assert np.allclose(b, 3.5 * a, rtol=1e-12, atol=1e-9)


def test_range_processing_start_needs_out():
    # Rows before `start` are taken as done in `out`; a new array holds none.
    cfg = small_config(num_tx=2, num_rx=2, chirps=4, samples=16)  # 8 chirps
    cube = synthesize_frame(cfg, [PointTarget(12.0, 1.0, 5.0)], NO_NOISE)
    with pytest.raises(ValueError, match="start=3 needs out="):
        range_processing(cube, WindowKind.HANN, start=3)
    out = range_processing(cube, WindowKind.HANN)
    ahead = out.copy()
    ahead[3:] = 0
    assert range_processing(cube, WindowKind.HANN, out=ahead, start=3) is ahead
    assert np.array_equal(ahead, out)


@pytest.mark.parametrize("kind", list(WindowKind))
def test_on_grid_peak_bin_recovery_all_windows(c0, kind):
    dp = derived_params(c0)
    target = PointTarget(40 * dp.range_resolution_m)  # exactly on bin 40
    cube = synthesize_frame(c0, [target], NO_NOISE)
    profile = np.abs(range_processing(cube, kind))
    assert (np.argmax(profile, axis=-1) == 40).all()


def test_doppler_zero_velocity_peaks_at_center(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0, 0.0)], NO_NOISE)
    rd = doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), c0)
    dop_idx, _, _ = np.unravel_index(np.argmax(np.abs(rd.data)), rd.data.shape)
    assert rd.centered_bins()[dop_idx] == 0


def test_doppler_peak_bin_20(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0, 2.5367)], NO_NOISE)
    rd = doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), c0)
    dop_idx, _, _ = np.unravel_index(np.argmax(np.abs(rd.data)), rd.data.shape)
    assert rd.centered_bins()[dop_idx] == 20


def test_doppler_shape_and_virtual_order(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0)], NO_NOISE)
    rd = doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), c0)
    assert rd.data.shape == (128, 8, 256)


def test_doppler_hann_coherent_gain(c0):
    dp = derived_params(c0)
    # On-grid in both range and doppler so windowing scales the peak cleanly.
    target = PointTarget(40 * dp.range_resolution_m, 20 * dp.velocity_resolution_m_s)
    cube = synthesize_frame(c0, [target], NO_NOISE)
    rc = range_processing(cube, WindowKind.RECTANGULAR)
    peak_rect = np.abs(doppler_processing(rc, c0, WindowKind.RECTANGULAR).data).max()
    peak_hann = np.abs(doppler_processing(rc, c0, WindowKind.HANN).data).max()
    gain = coherent_gain(WindowKind.HANN, 128)
    assert peak_hann / peak_rect == pytest.approx(gain, rel=1e-9)
    assert gain == pytest.approx(0.5, rel=0.01)


def test_doppler_peak_bin_unchanged_by_window(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0, 2.5367)], NO_NOISE)
    rc = range_processing(cube, WindowKind.RECTANGULAR)
    for kind in (WindowKind.RECTANGULAR, WindowKind.HANN):
        rd = doppler_processing(rc, c0, kind)
        dop_idx, _, _ = np.unravel_index(np.argmax(np.abs(rd.data)), rd.data.shape)
        assert rd.centered_bins()[dop_idx] == 20


def test_doppler_matches_brute_force_dft():
    cfg = small_config(num_tx=2, num_rx=2, chirps=16, samples=8)
    rng = np.random.default_rng(2)
    data = rng.standard_normal((32, 2, 8)) + 1j * rng.standard_normal((32, 2, 8))
    cube = DataCube(data, 0, cfg)
    rc = range_processing(cube, WindowKind.RECTANGULAR)
    rd = doppler_processing(rc, cfg, WindowKind.RECTANGULAR)
    # Virtual element v = tx*num_rx + rx; slow-time series is chirps s*M + tx.
    for tx in range(2):
        for rx in range(2):
            series = rc[tx::2, rx, :]
            for range_bin in range(8):
                expected = np.fft.fftshift(brute_force_dft(series[:, range_bin]))
                got = rd.data[:, tx * 2 + rx, range_bin]
                err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
                assert err < 1e-9


def test_doppler_rejects_bad_chirp_count(c0):
    bad = np.zeros((255, 4, 256), dtype=complex)  # not divisible by num_tx=2
    with pytest.raises(ShapeError):
        doppler_processing(bad, c0)


def _reference_stages(cube, range_kind, doppler_kind):
    """The former stage expressions: range cube, Doppler cube, both power maps."""
    cfg = cube.config
    n_slow = cfg.chirps_per_frame_per_tx
    rc = np.fft.fft(
        cube.data * window(range_kind, cfg.samples_per_chirp)[np.newaxis, np.newaxis, :],
        axis=-1,
    )
    regrouped = rc.reshape(n_slow, cfg.num_tx * cfg.num_rx, cfg.samples_per_chirp)
    w = window(doppler_kind, n_slow)
    rd = np.fft.fftshift(np.fft.fft(regrouped * w[:, np.newaxis, np.newaxis], axis=0), axes=0)
    return rc, rd, np.sum(np.abs(rd) ** 2, axis=1), np.abs(np.sum(rd, axis=1)) ** 2


@settings(max_examples=40, deadline=None)
@given(
    num_tx=st.integers(1, 3),
    num_rx=st.integers(1, 4),
    chirps=st.integers(2, 33),
    samples=st.integers(2, 40),
    range_kind=st.sampled_from(WindowKind),
    doppler_kind=st.sampled_from(WindowKind),
    seed=st.integers(0, 2**32 - 1),
)
def test_stages_bit_identical_to_reference_and_leave_inputs(
    num_tx, num_rx, chirps, samples, range_kind, doppler_kind, seed
):
    cfg = small_config(num_tx=num_tx, num_rx=num_rx, chirps=chirps, samples=samples)
    rng = np.random.default_rng(seed)
    shape = (cfg.chirps_per_frame, num_rx, samples)
    cube = DataCube(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0, cfg)
    rc_ref, rd_ref, noncoherent_ref, coherent_ref = _reference_stages(
        cube, range_kind, doppler_kind
    )

    rc = range_processing(cube, range_kind)
    assert np.array_equal(rc, rc_ref)
    rc_before = rc.copy()
    rd = doppler_processing(rc, cfg, doppler_kind)
    assert np.array_equal(rd.data, rd_ref)
    assert np.array_equal(rc, rc_before) and rc.flags.writeable
    rd_before = rd.data.copy()
    assert np.array_equal(accumulate_power(rd, Accumulation.NONCOHERENT_SUM), noncoherent_ref)
    assert np.array_equal(accumulate_power(rd, Accumulation.COHERENT_SUM), coherent_ref)
    assert np.array_equal(rd.data, rd_before)

    # The range stage on a caller-owned buffer.
    rc_out = np.empty(shape, np.complex128)
    assert range_processing(cube, range_kind, out=rc_out) is rc_out
    assert np.array_equal(rc_out, rc_ref)


def test_range_doppler_cube_leaves_the_callers_array_writable(c0):
    data = np.zeros((128, 8, 256), np.complex128)
    rd = RangeDopplerCube(data, c0)
    assert data.flags.writeable
    assert not rd.data.flags.writeable
    with pytest.raises(ValueError):
        rd.data[0, 0, 0] = 1.0


def test_power_map_floor(c0):
    cube = synthesize_frame(c0, [], NO_NOISE)
    rd = doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), c0)
    m = power_map(rd)
    assert m.shape == (128, 256)
    assert np.allclose(m, -300.0, atol=1e-9)


def test_noncoherent_accumulation_gain_over_8_antennas(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0)], NO_NOISE)
    rd = doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), c0)
    full = power_map(rd, Accumulation.NONCOHERENT_SUM)
    single = power_map(
        RangeDopplerCube(rd.data[:, :1, :], c0), Accumulation.NONCOHERENT_SUM
    )
    assert full.max() - single.max() == pytest.approx(10 * math.log10(8), abs=0.01)


def test_coherent_vs_noncoherent_broadside(c0):
    cube = synthesize_frame(c0, [PointTarget(10.0, 0.0, 0.0)], NO_NOISE)
    rd = doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), c0)
    coh = accumulate_power(rd, Accumulation.COHERENT_SUM).max()
    non = accumulate_power(rd, Accumulation.NONCOHERENT_SUM).max()
    # All 8 virtual elements are in phase at broadside: |sum|^2 = 8 * sum|.|^2.
    assert coh / non == pytest.approx(8.0, rel=1e-9)


def test_parseval_rectangular(c0):
    cube = synthesize_frame(
        c0, [PointTarget(10.0, 2.0, 10.0)], NoiseSpec(0.5, 7)
    )
    spectrum = range_processing(cube, WindowKind.RECTANGULAR)
    time_energy = np.sum(np.abs(cube.data) ** 2, axis=-1)
    freq_energy = np.sum(np.abs(spectrum) ** 2, axis=-1) / c0.samples_per_chirp
    assert np.allclose(freq_energy, time_energy, rtol=1e-9)


def test_fftshift_involution_even_axis():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(128)
    assert np.array_equal(np.fft.fftshift(np.fft.fftshift(x)), x)


def test_power_map_csv_round_trip(tmp_path):
    m = np.array([[1.0, -2.5], [3.25, -300.0]])
    path = tmp_path / "map.csv"
    write_power_map_csv(m, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2  # one row per doppler bin
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.allclose(parsed, m, rtol=1e-5)


def _encoded_row(values) -> bytes:
    return _encode_csv_rows(np.array([values], dtype=np.float64))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=8))
@example([1000.125, float("nan"), 63.2451, -0.0, 1e300, -300.0])
def test_csv_encoder_matches_percent_g(values):
    expected = ",".join("%.6g" % v for v in values) + "\n"
    assert _encoded_row(values) == expected.encode("ascii")


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, "0"),
        (-0.0, "-0"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (5e-324, "4.94066e-324"),
        (-300.0, "-300"),
        (1e-4, "0.0001"),
        (float(np.nextafter(1e-4, 0.0)), "0.0001"),
        (float(np.nextafter(1e-4, 1.0)), "0.0001"),
        (9.999995e-5, "0.0001"),
        (99999.95, "99999.9"),
        (999999.5, "1e+06"),
        (float(np.nextafter(999999.5, 0.0)), "999999"),
        (float(np.nextafter(999999.5, 2e6)), "1e+06"),
        (1e6, "1e+06"),
        (float(np.nextafter(1000.0, 0.0)), "1000"),  # log10 rounds to 3.0 here
        (1000.125, "1000.12"),  # exact binary ties round half to even
        (1000.375, "1000.38"),
        (9.9999996, "10"),  # rounds up into the next decade
        (999999.7, "1e+06"),  # rounds up out of fixed notation
        (1.000005, "1.00001"),  # s rounds to the tie 100000.5; x lies above it
        (100.0015, "100.001"),  # s rounds to the tie 100001.5; x lies below it
    ],
)
def test_csv_encoder_edge_values(value, text):
    assert text == "%.6g" % value
    assert _encoded_row([value]) == (text + "\n").encode("ascii")


def _savetxt_bytes(m, path) -> bytes:
    np.savetxt(path, np.atleast_2d(m), fmt="%.6g", delimiter=",")
    return path.read_bytes()


def _db_map(seed):
    rng = np.random.default_rng(seed)
    return 10.0 * np.log10(rng.exponential(1e4, (128, 256)))


def _non_finite_map():
    m = _db_map(3)[:20, :30].copy()
    m[0, 0], m[5, 29], m[19, 7] = np.nan, np.inf, -np.inf
    m[7, :3] = [0.0, -0.0, -300.0]
    return m


@pytest.mark.parametrize(
    "m",
    [_db_map(0), _db_map(1), np.linspace(-300.0, 90.0, 17), np.zeros((0, 3)),
     np.zeros((1, 0)), _non_finite_map()],
    ids=["db_map_0", "db_map_1", "one_d", "no_rows", "no_columns", "non_finite"],
)
def test_power_map_csv_bytes_match_savetxt(tmp_path, m):
    path = tmp_path / "map.csv"
    write_power_map_csv(m, path)
    assert path.read_bytes() == _savetxt_bytes(m, tmp_path / "ref.csv")


def test_power_map_pgm_format(tmp_path):
    m = np.array([[0.0, -10.0], [-20.0, -30.0]])
    path = tmp_path / "map.pgm"
    write_power_map_pgm(m, path)
    raw = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=">u2").reshape(2, 2)
    assert pixels[0, 0] == 65535 and pixels[1, 1] == 0


def test_power_map_pgm_constant_map(tmp_path):
    path = tmp_path / "flat.pgm"
    write_power_map_pgm(np.full((3, 4), -300.0), path)
    raw = path.read_bytes()
    pixels = np.frombuffer(raw[raw.index(b"65535\n") + 6:], dtype=">u2")
    assert not pixels.any()


def test_power_map_pgm_pixels_are_the_rescaled_map(tmp_path):
    m = _db_map(2)
    write_power_map_pgm(m, tmp_path / "map.pgm")
    lo, hi = float(m.min()), float(m.max())
    pixels = np.round((m - lo) / (hi - lo) * 65535.0).astype(">u2")
    assert (tmp_path / "map.pgm").read_bytes() == b"P5\n256 128\n65535\n" + pixels.tobytes()


@pytest.mark.parametrize("x", [5.0, np.float64(1e-40), np.array(0.0),
                               np.array([[1e-40, 3.0], [1e6, 0.0]])])
def test_to_db_gives_the_floored_expression_and_its_type(x):
    want = 10.0 * np.log10(np.maximum(x, 10.0 ** (DB_FLOOR / 10.0)))
    got = to_db(x)
    assert type(got) is type(want)
    assert np.array_equal(got, want)
