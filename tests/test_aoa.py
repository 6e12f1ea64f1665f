import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarkit import (
    AngleSpectrum,
    DomainError,
    GeometryError,
    NoiseSpec,
    PointTarget,
    RankError,
    SingularError,
    VirtualArray,
    WindowKind,
    aoa_fft,
    bartlett,
    capon,
    covariance,
    default_angle_grid,
    doppler_compensate,
    doppler_processing,
    estimate_source_count,
    music,
    peak_angles,
    range_processing,
    steering_vector,
    synthesize_frame,
    virtual_array,
    write_angle_spectrum_csv,
)
from radarkit.aoa import _peaks, sorted_eig

from conftest import C0

NO_NOISE = NoiseSpec(0.0, 0)
ULA8 = VirtualArray(0.5 * np.arange(8))


def _source_snapshots(rng, angles_deg, amp, n_snapshots, array=ULA8):
    """Uncorrelated complex-Gaussian sources plus unit-power noise."""
    n = len(array)
    snaps = (rng.standard_normal((n_snapshots, n)) + 1j * rng.standard_normal((n_snapshots, n))) / np.sqrt(2)
    for theta in angles_deg:
        a = steering_vector(theta, array)
        s = amp / np.sqrt(2) * (rng.standard_normal(n_snapshots) + 1j * rng.standard_normal(n_snapshots))
        snaps += s[:, np.newaxis] * a[np.newaxis, :]
    return snaps


def test_virtual_array_c0(c0):
    arr = virtual_array(c0)
    assert np.allclose(arr.positions_wavelengths, 0.5 * np.arange(8))
    assert len(arr) == 8
    assert arr.uniform_spacing() == pytest.approx(0.5)
    diffs = np.diff(arr.positions_wavelengths)
    assert (diffs > 0).all()


def test_steering_broadside_is_ones():
    assert np.allclose(steering_vector(0.0, ULA8), np.ones(8))


def test_steering_30_degrees_quarter_turns():
    arr = VirtualArray(np.array([0.0, 0.5, 1.0, 1.5]))
    expected = np.array([1, 1j, -1, -1j])
    assert np.allclose(steering_vector(30.0, arr), expected, atol=1e-12)


def test_steering_conjugate_symmetry():
    for theta in (5.0, 33.3, 78.0):
        assert np.allclose(
            steering_vector(-theta, ULA8), np.conj(steering_vector(theta, ULA8))
        )


def test_steering_unit_magnitude():
    rng = np.random.default_rng(0)
    for _ in range(20):
        arr = VirtualArray(np.sort(rng.uniform(0, 4, size=6)))
        theta = float(rng.uniform(-89, 89))
        assert np.allclose(np.abs(steering_vector(theta, arr)), 1.0, atol=1e-12)


@pytest.mark.parametrize("theta", [90.0, -90.0, 120.0])
def test_steering_domain_error(theta):
    with pytest.raises(DomainError):
        steering_vector(theta, ULA8)


def _rd_cube(cfg, target):
    cube = synthesize_frame(cfg, [target], NO_NOISE)
    return doppler_processing(range_processing(cube, WindowKind.RECTANGULAR), cfg)


def test_doppler_compensate_identity_for_single_tx():
    import dataclasses
    cfg = dataclasses.replace(C0, num_tx=1, tx_spacing_wavelengths=None)
    rd = _rd_cube(cfg, PointTarget(10.0, 1.0, 10.0))
    assert doppler_compensate(rd) is rd


def test_doppler_compensate_zero_bin_untouched(c0):
    rd = _rd_cube(c0, PointTarget(10.0, 0.0, 20.0))
    comp = doppler_compensate(rd)
    center = rd.num_doppler_bins // 2
    assert np.array_equal(comp.data[center], rd.data[center])


def test_doppler_compensate_preserves_magnitude(c0):
    rd = _rd_cube(c0, PointTarget(10.0, 3.0, 20.0))
    comp = doppler_compensate(rd)
    assert np.allclose(np.abs(comp.data), np.abs(rd.data), rtol=1e-12)


def test_doppler_compensate_restores_angle_estimate(c0):
    arr = virtual_array(c0)
    theta = 20.0

    def fft_peak(rd):
        idx = np.unravel_index(np.argmax(np.abs(rd.data)), rd.data.shape)
        return aoa_fft(rd.data[idx[0], :, idx[2]], arr, 256).argmax_deg()

    static = _rd_cube(c0, PointTarget(10.0, 0.0, theta))
    moving = _rd_cube(c0, PointTarget(10.0, 2.5367, theta))
    static_est = fft_peak(static)
    compensated_est = fft_peak(doppler_compensate(moving))
    uncompensated_est = fft_peak(moving)
    assert abs(compensated_est - static_est) < 0.5
    assert abs(uncompensated_est - static_est) > 1.0


def test_covariance_rank_one():
    r = covariance(np.ones((1, 4), dtype=complex))
    assert np.allclose(r.matrix, np.ones((4, 4)))
    assert r.n_snapshots == 1


def test_covariance_loading_adds_scaled_identity():
    snaps = np.ones((1, 4), dtype=complex)
    r0 = covariance(snaps, loading=0.0)
    r = covariance(snaps, loading=0.01)
    add = 0.01 * np.trace(r0.matrix).real / 4
    assert np.allclose(r.matrix, r0.matrix + add * np.eye(4))
    with pytest.raises(ValueError, match="loading must be >= 0"):
        covariance(snaps, loading=-1)


def test_angle_spectrum_lengths_must_match():
    with pytest.raises(ValueError, match="same length"):
        AngleSpectrum(np.arange(3.0), np.ones(4))


def test_covariance_hermitian_psd():
    rng = np.random.default_rng(1)
    snaps = _source_snapshots(rng, [12.0], 10.0, 64)
    r = covariance(snaps)
    assert np.allclose(r.matrix, r.matrix.conj().T, atol=1e-12)
    vals = np.linalg.eigvalsh(r.matrix)
    assert vals.min() >= -1e-9 * np.trace(r.matrix).real


def test_covariance_dominant_eigenvector_matches_steering():
    rng = np.random.default_rng(2)
    theta0 = 25.0
    a = steering_vector(theta0, ULA8)
    s = (rng.standard_normal(128) + 1j * rng.standard_normal(128)) / np.sqrt(2)
    snaps = s[:, np.newaxis] * a[np.newaxis, :]  # zero noise
    _, vecs = sorted_eig(covariance(snaps))
    v = vecs[:, 0]
    cos_sim = abs(np.vdot(v, a)) / (np.linalg.norm(v) * np.linalg.norm(a))
    assert cos_sim > 0.999


def test_sorted_eig_descending_and_deterministic_sign():
    rng = np.random.default_rng(3)
    snaps = _source_snapshots(rng, [0.0, 40.0], 5.0, 64)
    vals, vecs = sorted_eig(covariance(snaps))
    assert (np.diff(vals) <= 1e-12).all()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        first = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
        assert first.real > 0
        assert abs(first.imag) < 1e-12 * abs(first.real)


def test_estimate_source_count_two_strong_sources():
    rng = np.random.default_rng(4)
    snaps = _source_snapshots(rng, [-20.0, 35.0], 10.0, 256)
    assert estimate_source_count(covariance(snaps)) == 2


def test_aoa_fft_broadside():
    spec = aoa_fft(np.ones(8, dtype=complex), ULA8, 64)
    assert spec.argmax_deg() == pytest.approx(0.0, abs=1e-9)


def test_aoa_fft_30_degrees_on_grid():
    snap = steering_vector(30.0, ULA8)
    spec = aoa_fft(snap, ULA8, 64)
    # sin(30) * 64 * 0.5 = 16: exactly on bin, so the peak sits one grid
    # step at most from 30 degrees.
    grid_step = np.max(np.abs(np.diff(spec.angles_deg)))
    assert abs(spec.argmax_deg() - 30.0) <= grid_step


def test_aoa_fft_global_phase_invariance():
    snap = steering_vector(-12.0, ULA8)
    a = aoa_fft(snap, ULA8, 128)
    b = aoa_fft(snap * np.exp(1j * 1.234), ULA8, 128)
    assert np.allclose(a.power, b.power, rtol=1e-9)


def test_aoa_fft_geometry_errors():
    nonuniform = VirtualArray(np.array([0.0, 0.5, 1.5, 2.0]))
    with pytest.raises(GeometryError):
        aoa_fft(np.ones(4, dtype=complex), nonuniform, 16)
    with pytest.raises(GeometryError):
        aoa_fft(np.ones(7, dtype=complex), ULA8, 16)
    with pytest.raises(ValueError):
        aoa_fft(np.ones(8, dtype=complex), ULA8, 4)


def test_grid_excludes_endpoints():
    grid = default_angle_grid(0.1)
    assert grid[0] == pytest.approx(-89.9)
    assert grid[-1] == pytest.approx(89.9)
    assert len(grid) == 1799
    assert (np.diff(grid) > 0).all()


def test_bartlett_flat_for_identity_covariance():
    from radarkit.aoa import CovarianceMatrix
    r = CovarianceMatrix(np.eye(8, dtype=complex), 8)
    spec = bartlett(r, ULA8)
    assert np.allclose(spec.power, 1.0, rtol=1e-9)


def test_capon_flat_for_identity_covariance():
    from radarkit.aoa import CovarianceMatrix
    r = CovarianceMatrix(np.eye(8, dtype=complex), 8)
    spec = capon(r, ULA8)
    assert np.allclose(spec.power, spec.power[0], rtol=1e-9)


def test_music_rank_errors():
    from radarkit.aoa import CovarianceMatrix
    r = CovarianceMatrix(np.eye(8, dtype=complex), 8)
    with pytest.raises(RankError):
        music(r, ULA8, 8)
    with pytest.raises(RankError):
        music(r, ULA8, 0)


def test_capon_singular_error_without_loading():
    snaps = np.ones((1, 8), dtype=complex)  # rank-1 covariance
    with pytest.raises(SingularError):
        capon(covariance(snaps, loading=0.0), ULA8)
    capon(covariance(snaps, loading=1e-3), ULA8)  # loading fixes it


def test_single_source_all_methods_within_one_degree():
    grid = default_angle_grid(0.1)
    theta0 = 20.0
    hits = {"bartlett": 0, "capon": 0, "music": 0}
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        snaps = _source_snapshots(rng, [theta0], 10.0, 128)  # SNR 20 dB
        r = covariance(snaps)
        rl = covariance(snaps, loading=1e-3)
        hits["bartlett"] += abs(bartlett(r, ULA8, grid).argmax_deg() - theta0) <= 1.0
        hits["capon"] += abs(capon(rl, ULA8, grid).argmax_deg() - theta0) <= 1.0
        hits["music"] += abs(music(r, ULA8, 1, grid).argmax_deg() - theta0) <= 1.0
    assert hits == {"bartlett": 50, "capon": 50, "music": 50}


def test_covariance_scaling_leaves_argmax_and_scales_spectra():
    rng = np.random.default_rng(5)
    snaps = _source_snapshots(rng, [15.0], 10.0, 128)
    grid = default_angle_grid(1.0)
    r = covariance(snaps, loading=1e-3)
    from radarkit.aoa import CovarianceMatrix
    rs = CovarianceMatrix(4.0 * r.matrix, r.n_snapshots)
    b1, b2 = bartlett(r, ULA8, grid), bartlett(rs, ULA8, grid)
    c1, c2 = capon(r, ULA8, grid), capon(rs, ULA8, grid)
    m1, m2 = music(r, ULA8, 1, grid), music(rs, ULA8, 1, grid)
    assert np.allclose(b2.power, 4.0 * b1.power, rtol=1e-9)
    assert np.allclose(c2.power, 4.0 * c1.power, rtol=1e-9)
    for s1, s2 in ((b1, b2), (c1, c2), (m1, m2)):
        assert s1.argmax_deg() == s2.argmax_deg()


def test_music_noise_subspace_orthogonality_zero_noise():
    grid = default_angle_grid(0.5)
    thetas = [-10.0, 30.0]
    rng = np.random.default_rng(6)
    snaps = np.zeros((64, 8), dtype=complex)
    for theta in thetas:
        a = steering_vector(theta, ULA8)
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        snaps += s[:, np.newaxis] * a[np.newaxis, :]
    _, vecs = sorted_eig(covariance(snaps))
    noise_basis = vecs[:, 2:]
    for theta in thetas:
        a = steering_vector(theta, ULA8)
        assert np.linalg.norm(noise_basis.conj().T @ a) < 1e-6


def test_peak_angles_monotone_spectrum_empty():
    spec = AngleSpectrum(np.arange(10.0), np.arange(10.0))
    assert peak_angles(spec, 5) == []


def test_peak_angles_plateau_not_a_peak():
    power = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.5])
    spec = AngleSpectrum(np.arange(6.0), power)
    peaks = peak_angles(spec, 5)
    assert peaks == [(4.0, 2.0)]


def test_peak_angles_sorted_and_truncated():
    power = np.array([0, 3, 0, 9, 0, 5, 0], dtype=float)
    spec = AngleSpectrum(np.arange(7.0), power)
    assert peak_angles(spec, 2) == [(3.0, 9.0), (5.0, 5.0)]
    with pytest.raises(ValueError):
        peak_angles(spec, 0)


def _peaks_per_spectrum(angles, p, max_peaks):
    """The former per-spectrum peak picker, verbatim."""
    if max_peaks < 1:
        raise ValueError(f"max_peaks must be >= 1, got {max_peaks}")
    if len(p) < 3:
        return []
    interior = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])) + 1
    order = interior[np.argsort(p[interior])[::-1]]
    return [(float(angles[i]), float(p[i])) for i in order[:max_peaks]]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda n: st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True),
        min_size=1, max_size=6)),
    st.integers(1, 4),
)
def test_batched_peaks_match_the_per_spectrum_picker(rows, max_peaks):
    # unique=True: no two maxima of a spectrum tie, so the former order is defined.
    p = np.array(rows)
    angles = np.linspace(-80.0, 80.0, p.shape[1])
    expected = [_peaks_per_spectrum(angles, row, max_peaks) for row in p]
    assert _peaks(angles, p, max_peaks) == expected
    assert peak_angles(AngleSpectrum(angles, p[0]), max_peaks) == expected[0]


def test_tied_maxima_come_in_descending_angle_order():
    p = np.array([[0, 5, 0, 5, 0, 7, 0, 5, 0], [0, 1, 0, 1, 0, 1, 0, 1, 0]], dtype=float)
    angles = np.arange(9.0)
    assert _peaks(angles, p, 3) == [[(5.0, 7.0), (7.0, 5.0), (3.0, 5.0)],
                                    [(7.0, 1.0), (5.0, 1.0), (3.0, 1.0)]]
    assert peak_angles(AngleSpectrum(angles, p[0]), 2) == [(5.0, 7.0), (7.0, 5.0)]


def test_peaks_of_nan_rows_and_short_spectra():
    angles = np.arange(7.0)
    nan = np.full(7, np.nan)
    beside_nan = np.array([0.0, 2.0, np.nan, 3.0, 1.0, 4.0, 0.0])  # no maximum beside NaN
    p = np.array([nan, [0.0, 1.0, 0.0, 4.0, 0.0, 0.0, 0.0], beside_nan])
    expected = [[], [(3.0, 4.0), (1.0, 1.0)], [(5.0, 4.0)]]
    assert _peaks(angles, p, 2) == expected
    assert [_peaks_per_spectrum(angles, row, 2) for row in p] == expected
    assert _peaks(angles[:2], np.ones((3, 2)), 1) == [[], [], []]
    assert peak_angles(AngleSpectrum(angles[:2], np.array([0.0, 1.0]))) == []
    assert _peaks(angles, np.empty((0, 6)), 1) == []
    with pytest.raises(ValueError):
        _peaks(angles[:2], np.ones((1, 2)), 0)


def test_two_source_music_gives_two_peaks():
    rng = np.random.default_rng(7)
    snaps = _source_snapshots(rng, [-7.0, 7.0], 10.0, 256)
    spec = music(covariance(snaps), ULA8, 2, default_angle_grid(0.1))
    peaks = peak_angles(spec, 2)
    assert len(peaks) == 2
    angles = sorted(p[0] for p in peaks)
    assert angles[0] == pytest.approx(-7.0, abs=1.0)
    assert angles[1] == pytest.approx(7.0, abs=1.0)


def test_angle_spectrum_csv(tmp_path):
    spec = AngleSpectrum(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 2.0, 0.25]))
    path = tmp_path / "spec.csv"
    write_angle_spectrum_csv(spec, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "angle_deg,power"
    assert lines[2] == "0,2"
