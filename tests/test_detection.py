import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarkit import (
    CfarParams,
    Detection,
    NoiseSpec,
    ParamError,
    PipelineConfig,
    PointTarget,
    WindowError,
    WindowKind,
    accumulate_power,
    bin_to_range,
    bin_to_velocity,
    ca_cfar_1d,
    cfar_2d,
    cfar_alpha,
    derived_params,
    doppler_processing,
    group_peaks,
    log_gabor_filter,
    process_frame,
    range_processing,
    synthesize_frame,
    to_point_cloud,
    write_point_cloud_csv,
)
import radarkit.detect
from radarkit.detect import _cfar


def test_cfar_params_validation():
    with pytest.raises(ValueError):
        CfarParams(guard_cells=-1)
    with pytest.raises(ValueError):
        CfarParams(train_cells=0)
    with pytest.raises(ValueError):
        CfarParams(pfa=0.0)
    with pytest.raises(ValueError):
        CfarParams(pfa=1.0)


def test_alpha_closed_form():
    # 24 * (10^(3/24) - 1) for pfa 1e-3 with 12 training cells per side.
    assert cfar_alpha(1e-3, 24) == pytest.approx(8.004514371919775, rel=1e-12)


def test_flat_profile_yields_no_detections():
    params = CfarParams(guard_cells=2, train_cells=8, pfa=1e-3)
    mask, thresholds = ca_cfar_1d(np.full(128, 3.0), params)
    assert not mask.any()
    assert (thresholds > 3.0).all()  # alpha > 1 for small pfa


def test_single_spike_flagged_exactly():
    profile = np.ones(200)
    profile[77] = 100.0
    mask, _ = ca_cfar_1d(profile, CfarParams(guard_cells=2, train_cells=12, pfa=1e-3))
    assert list(np.flatnonzero(mask)) == [77]


def test_edge_cells_use_one_sided_training_with_recomputed_alpha():
    rng = np.random.default_rng(0)
    profile = rng.exponential(1.0, 64)
    params = CfarParams(guard_cells=1, train_cells=2, pfa=1e-2)
    _, thresholds = ca_cfar_1d(profile, params)
    # Cell 0 has no left side: training = cells [2, 3], alpha for N_t = 2.
    expected0 = cfar_alpha(1e-2, 2) * profile[2:4].mean()
    assert thresholds[0] == pytest.approx(expected0, rel=1e-12)
    # An interior cell sees both sides: N_t = 4.
    i = 30
    train = np.concatenate([profile[i - 3:i - 1], profile[i + 2:i + 4]])
    assert thresholds[i] == pytest.approx(cfar_alpha(1e-2, 4) * train.mean(), rel=1e-12)


def test_circular_mode_wraps_training_cells():
    profile = np.ones(32)
    profile[-1] = 50.0  # sits in cell 1's wrapped left training window
    params = CfarParams(guard_cells=0, train_cells=2, pfa=1e-2, circular=True)
    _, thresholds = ca_cfar_1d(profile, params)
    expected = cfar_alpha(1e-2, 4) * np.array([50.0, 1.0, 1.0, 1.0]).mean()
    assert thresholds[1] == pytest.approx(expected, rel=1e-12)


def test_cfar_scale_invariance():
    rng = np.random.default_rng(1)
    profile = rng.exponential(1.0, 512)
    params = CfarParams(guard_cells=2, train_cells=8, pfa=1e-2)
    mask, _ = ca_cfar_1d(profile, params)
    mask_scaled, _ = ca_cfar_1d(profile * 1e3, params)
    assert np.array_equal(mask, mask_scaled)


def test_cfar_window_must_fit():
    with pytest.raises(WindowError):
        ca_cfar_1d(np.ones(16), CfarParams(guard_cells=2, train_cells=6))
    with pytest.raises(WindowError):
        ca_cfar_1d(np.ones((4, 4)), CfarParams())  # not 1-d
    with pytest.raises(WindowError, match="expected a 2-d map, got 1-d"):
        cfar_2d(np.ones(32), CfarParams(), CfarParams())


def test_cfar_empirical_false_alarm_rate_quick():
    rng = np.random.default_rng(2)
    params = CfarParams(guard_cells=2, train_cells=12, pfa=1e-2)
    cells = 0
    alarms = 0
    for _ in range(200):
        profile = rng.exponential(1.0, 1024)
        mask, _ = ca_cfar_1d(profile, params)
        alarms += mask.sum()
        cells += mask.size
    rate = alarms / cells
    assert 0.5e-2 <= rate <= 2e-2


def test_cfar_2d_zero_map_no_detections():
    params = CfarParams(guard_cells=1, train_cells=4, pfa=1e-3)
    assert cfar_2d(np.zeros((64, 64)), params, params) == []


def test_cfar_2d_zero_noise_estimate_gives_inf_snr_without_warning(tmp_path, c0):
    m = np.zeros((16, 16))
    m[8, 5] = 1.0
    params = CfarParams(guard_cells=1, train_cells=2, pfa=1e-3)
    dets = cfar_2d(m, params, params)  # a RuntimeWarning would be an error here
    assert [(d.doppler_bin, d.range_bin, d.power) for d in dets] == [(0, 5, 1.0)]
    assert dets[0].snr_db == math.inf
    path = tmp_path / "points.csv"
    write_point_cloud_csv(to_point_cloud(dets, [[(0.0, 1.0)]], c0), path)
    assert path.read_text().splitlines()[1].split(",")[4] == "inf"


def test_cfar_2d_finds_simulated_target(c0):
    params = CfarParams(guard_cells=2, train_cells=8, pfa=1e-4)
    hits = 0
    for seed in range(5):
        cube = synthesize_frame(
            c0,
            [PointTarget(10.0, 2.5367, 20.0, amplitude=1000.0)],
            NoiseSpec(1000.0, seed),  # 30 dB per-sample SNR
        )
        rd = doppler_processing(range_processing(cube, WindowKind.HANN), c0, WindowKind.HANN)
        detections = cfar_2d(accumulate_power(rd), params, params)
        grouped = group_peaks(detections, doppler_bins=c0.chirps_per_frame_per_tx)
        hits += (
            len(grouped) == 1
            and grouped[0].range_bin == 51
            and grouped[0].doppler_bin == 20
        )
    assert hits == 5


def test_cfar_2d_and_composition_is_conservative():
    # Per-cell false alarm rate of the range-AND-doppler composition stays
    # at or below the per-axis pfa on >= 1e6 homogeneous noise cells.
    rng = np.random.default_rng(3)
    params = CfarParams(guard_cells=2, train_cells=8, pfa=1e-3)
    cells = alarms = 0
    for _ in range(8):
        noise_map = rng.exponential(1.0, (128, 1024))
        alarms += len(cfar_2d(noise_map, params, params))
        cells += noise_map.size
    assert cells >= 1_000_000
    assert alarms / cells <= 1e-3


def test_detection_fields_consistent(c0):
    params = CfarParams(guard_cells=2, train_cells=8, pfa=1e-4)
    cube = synthesize_frame(
        c0, [PointTarget(10.0, 0.0, 0.0, 1000.0)], NoiseSpec(1000.0, 0)
    )
    rd = doppler_processing(range_processing(cube, WindowKind.HANN), c0, WindowKind.HANN)
    detections = cfar_2d(accumulate_power(rd), params, params)
    assert detections
    for det in detections:
        assert det.power > det.threshold
        assert det.snr_db > 0


def _reference_cfar_rows(rows, params):
    """The former two-branch CA-CFAR along the last axis, kept as the oracle."""
    n = rows.shape[-1]
    g, t = params.guard_cells, params.train_cells
    i = np.arange(n)
    if params.circular:
        pad = g + t
        padded = np.concatenate([rows[..., -pad:], rows, rows[..., :pad]], axis=-1)
        s = np.concatenate(
            [np.zeros(rows.shape[:-1] + (1,)), np.cumsum(padded, axis=-1)], axis=-1
        )
        left = s[..., i + t] - s[..., i]
        right = s[..., i + 2 * pad + 1] - s[..., i + pad + g + 1]
        counts = np.full(n, 2 * t)
    else:
        s = np.concatenate(
            [np.zeros(rows.shape[:-1] + (1,)), np.cumsum(rows, axis=-1)], axis=-1
        )
        la = np.clip(i - g - t, 0, n)
        lb = np.clip(i - g, 0, n)
        ra = np.clip(i + g + 1, 0, n)
        rb = np.clip(i + g + t + 1, 0, n)
        left = s[..., lb] - s[..., la]
        right = s[..., rb] - s[..., ra]
        counts = (lb - la) + (rb - ra)
    noise = (left + right) / counts
    alpha = counts * (params.pfa ** (-1.0 / counts) - 1.0)
    thresholds = alpha * noise
    return rows > thresholds, thresholds, noise


def _reference_cfar_2d(m, range_params, doppler_params):
    """The former per-cell detection loop over transposed Doppler results."""
    n_doppler = m.shape[0]
    mask_r, thr_r, noise_r = _reference_cfar_rows(m, range_params)
    mask_d_t, thr_d_t, noise_d_t = _reference_cfar_rows(
        np.ascontiguousarray(m.T), doppler_params
    )
    mask_d, thr_d, noise_d = mask_d_t.T, thr_d_t.T, noise_d_t.T
    detections = []
    for row, col in np.argwhere(mask_r & mask_d):
        use_range = thr_r[row, col] >= thr_d[row, col]
        noise = noise_r[row, col] if use_range else noise_d[row, col]
        detections.append(
            Detection(
                range_bin=int(col),
                doppler_bin=int(row) - n_doppler // 2,
                power=float(m[row, col]),
                threshold=float(max(thr_r[row, col], thr_d[row, col])),
                snr_db=10.0 * math.log10(m[row, col] / noise),
            )
        )
    return detections


def test_cfar_buffers_are_per_thread_and_follow_the_map_shape():
    # Three threads run CFAR at once on maps of different shapes and params,
    # each switching shapes between calls; every result must be the
    # reference loop's, so no thread sees another's buffers or a stale shape.
    rng = np.random.default_rng(5)
    cases = [
        (10.0 ** rng.uniform(0, 6, (64, 96)),
         CfarParams(2, 8, 1e-3), CfarParams(1, 4, 1e-2, circular=True)),
        (10.0 ** rng.uniform(0, 6, (40, 200)),
         CfarParams(0, 3, 1e-2, circular=True), CfarParams(3, 5, 1e-4)),
        (10.0 ** rng.uniform(0, 6, (128, 256)), CfarParams(), CfarParams(circular=True)),
    ]
    want = [_reference_cfar_2d(*case) for case in cases]
    want_1d = [_reference_cfar_rows(m[3], params)[:2] for m, params, _ in cases]
    failures = []
    orders = ([0, 2], [1, 2, 0], [2, 1])
    barrier = threading.Barrier(len(orders))

    def run(order):
        try:
            barrier.wait(timeout=60)
            for _ in range(10):
                for i in order:
                    m, range_params, doppler_params = cases[i]
                    if cfar_2d(m, range_params, doppler_params) != want[i]:
                        failures.append(("cfar_2d", i))
                    got = ca_cfar_1d(m[3], range_params)
                    again = ca_cfar_1d(m[3], range_params)
                    if not all(np.array_equal(g, w) for g, w in zip(got, want_1d[i])):
                        failures.append(("ca_cfar_1d", i))
                    if any(np.shares_memory(g, a) for g, a in zip(got, again)):
                        failures.append(("ca_cfar_1d shares its result", i))
        except Exception as e:  # reported by the assertion below
            failures.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_cfar_keeps_buffers_only_for_maps_up_to_the_bound():
    # A thread keeps the CFAR arrays of a pipeline-sized map, not those of a
    # one-off large map, whose arrays are freed on return.
    rng = np.random.default_rng(6)
    small = 10.0 ** rng.uniform(0, 6, (128, 256))
    large = 10.0 ** rng.uniform(0, 6, (260, 256))  # 66560 cells
    assert small.size <= radarkit.detect._HELD_CFAR_CELLS < large.size
    params = CfarParams()
    held = []

    def run():
        assert cfar_2d(large, params, params) == _reference_cfar_2d(large, params, params)
        held.append(getattr(radarkit.detect._thread, "cfar", None))
        assert cfar_2d(small, params, params) == _reference_cfar_2d(small, params, params)
        kept = radarkit.detect._thread.cfar
        assert cfar_2d(large, params, params) == _reference_cfar_2d(large, params, params)
        held.append(radarkit.detect._thread.cfar is kept and kept[0][0].shape == small.shape)

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert held == [None, True]


@st.composite
def _cfar_maps(draw):
    """Finite non-negative maps of 8-300 cells per axis, log-uniform over a
    drawn part of 1e-6..1e9, some with all-zero rows."""
    shape = (draw(st.integers(8, 300)), draw(st.integers(8, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = sorted(draw(st.floats(-6.0, 9.0)) for _ in range(2))
    m = 10.0 ** rng.uniform(lo, hi, shape)
    m[rng.random(shape[0]) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))] = 0.0
    return m


@st.composite
def _fitting_params(draw, n):
    """CfarParams whose window fits an axis of n cells."""
    half = (n - 1) // 2  # 2 * (guard + train) <= n - 1
    guard = draw(st.integers(0, min(4, half - 1)))
    return CfarParams(
        guard_cells=guard,
        train_cells=draw(st.integers(1, min(16, half - guard))),
        # A subnormal pfa has no finite threshold factor at one training cell.
        pfa=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                           allow_subnormal=False)),
        circular=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cfar_kernel_bit_identical_to_reference(data):
    m = data.draw(_cfar_maps())
    axis = data.draw(st.sampled_from([0, 1]))
    params = data.draw(_fitting_params(m.shape[axis]))
    # A pfa near the smallest normal float gives an alpha near the largest
    # float, whose product with the noise can overflow in both.
    with np.errstate(over="ignore"):
        if axis == 1:
            expected = _reference_cfar_rows(m, params)
        else:
            expected = [a.T for a in _reference_cfar_rows(np.ascontiguousarray(m.T), params)]
        got = _cfar(m, params, axis)
        line = (0, slice(None)) if axis == 1 else (slice(None), 0)
        got_1d = ca_cfar_1d(m[line], params)
    for g, want in zip(got, expected):
        assert g.shape == want.shape
        assert np.array_equal(g, want, equal_nan=True)
    for g, want in zip(got_1d, expected):
        assert np.array_equal(g, want[line], equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cfar_2d_detections_equal_reference_loop(data):
    m = data.draw(_cfar_maps())
    range_params = data.draw(_fitting_params(m.shape[1]))
    doppler_params = data.draw(_fitting_params(m.shape[0]))
    # An isolated cell in a zero neighbourhood has zero noise (inf SNR in both);
    # a pfa near the smallest normal float can overflow the thresholds in both.
    with np.errstate(divide="ignore", over="ignore"):
        got = cfar_2d(m, range_params, doppler_params)
        want = _reference_cfar_2d(m, range_params, doppler_params)
    assert got == want
    assert repr(got) == repr(want)  # same types and float bits


def test_log_gabor_zero_map():
    assert not log_gabor_filter(np.zeros((16, 16)), 0.2, 0.5).any()


def test_log_gabor_kills_dc():
    out = log_gabor_filter(np.full((32, 48), 5.0), 0.1, 0.5)
    assert np.abs(out).max() < 1e-9


def test_log_gabor_passes_tone_at_center_frequency():
    y, x = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    tone = np.cos(2 * np.pi * 8 * x / 64)  # radial frequency 8/64 cycles
    out = log_gabor_filter(tone, f0_cycles=8 / 64, sigma_ratio=0.5)
    assert np.abs(out - tone).max() < 1e-6


def test_log_gabor_linearity():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((32, 32))
    b = rng.standard_normal((32, 32))
    lhs = log_gabor_filter(2.0 * a + 3.0 * b, 0.15, 0.6)
    rhs = 2.0 * log_gabor_filter(a, 0.15, 0.6) + 3.0 * log_gabor_filter(b, 0.15, 0.6)
    assert np.allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("f0,sigma", [(0.0, 0.5), (0.5, 0.5), (0.1, 0.0), (0.1, 1.0)])
def test_log_gabor_param_errors(f0, sigma):
    with pytest.raises(ParamError):
        log_gabor_filter(np.zeros((8, 8)), f0, sigma)


def test_log_gabor_needs_a_2d_map():
    with pytest.raises(ParamError, match="expected a 2-d map, got 1-d"):
        log_gabor_filter(np.ones(32), 0.1, 0.5)


def _det(range_bin, doppler_bin, power):
    return Detection(range_bin, doppler_bin, power, power / 2, 10.0)


def test_group_peaks_empty():
    assert group_peaks([], doppler_bins=128) == []


def test_group_peaks_adjacent_cells_reduce_to_strongest():
    dets = [_det(10, 0, 5.0), _det(11, 0, 9.0), _det(12, 0, 4.0)]
    grouped = group_peaks(dets, connectivity=8, doppler_bins=128)
    assert len(grouped) == 1
    assert grouped[0].range_bin == 11


def test_group_peaks_gap_keeps_two_groups():
    dets = [_det(10, 0, 5.0), _det(12, 0, 4.0)]
    for connectivity in (4, 8):
        assert len(group_peaks(dets, connectivity, doppler_bins=128)) == 2


def test_group_peaks_diagonal_connectivity():
    dets = [_det(10, 0, 5.0), _det(11, 1, 4.0)]
    assert len(group_peaks(dets, connectivity=8, doppler_bins=128)) == 1
    assert len(group_peaks(dets, connectivity=4, doppler_bins=128)) == 2
    with pytest.raises(ValueError):
        group_peaks(dets, connectivity=6, doppler_bins=128)


def test_group_peaks_output_subset_of_input():
    rng = np.random.default_rng(5)
    dets = [
        _det(int(rng.integers(0, 30)), int(rng.integers(-8, 8)), float(rng.uniform(1, 9)))
        for _ in range(40)
    ]
    grouped = group_peaks(dets, doppler_bins=128)
    assert len(grouped) <= len(dets)
    pool = {(d.range_bin, d.doppler_bin, d.power) for d in dets}
    assert all((d.range_bin, d.doppler_bin, d.power) in pool for d in grouped)


def _reference_group_peaks(detections, connectivity, doppler_bins):
    """Pairwise union-find over the distinct cells, the last copy of each kept."""
    cells = list({(d.doppler_bin, d.range_bin): d for d in detections}.values())
    parent = list(range(len(cells)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(cells):
        for j, b in enumerate(cells[:i]):
            rows = (a.doppler_bin - b.doppler_bin) % doppler_bins
            rows = min(rows, doppler_bins - rows)  # the Doppler axis wraps
            cols = abs(a.range_bin - b.range_bin)
            if max(rows, cols) == 1 and (connectivity == 8 or rows + cols == 1):
                parent[root(i)] = root(j)
    clusters = {}
    for i, d in enumerate(cells):
        clusters.setdefault(root(i), []).append(d)
    peaks = [max(c, key=lambda d: (d.power, d.doppler_bin, d.range_bin))
             for c in clusters.values()]
    return sorted(peaks, key=lambda d: (d.doppler_bin, d.range_bin))


@st.composite
def _cell_lists(draw):
    doppler_bins = draw(st.integers(1, 12))
    lo, hi = -(doppler_bins // 2), doppler_bins - doppler_bins // 2 - 1
    # Edge rows drawn as often as all others together; few powers, so ties happen.
    rows = st.sampled_from([lo, hi]) | st.integers(lo, hi)
    cells = draw(st.lists(st.tuples(rows, st.integers(0, 5), st.sampled_from([1.0, 2.0, 3.0])),
                          max_size=40))
    # snr_db tells the copies of a cell apart.
    return doppler_bins, [Detection(c, r, p, 0.0, float(i)) for i, (r, c, p) in enumerate(cells)]


@settings(max_examples=200, deadline=None)
@given(_cell_lists(), st.sampled_from([4, 8]))
def test_group_peaks_equals_pairwise_union_find(cell_list, connectivity):
    doppler_bins, dets = cell_list
    got = group_peaks(dets, connectivity, doppler_bins=doppler_bins)
    assert got == _reference_group_peaks(dets, connectivity, doppler_bins)
    # One row past either edge would alias a row on the map.
    for off_map in (-(doppler_bins // 2) - 1, doppler_bins - doppler_bins // 2):
        with pytest.raises(ValueError, match="doppler bin"):
            group_peaks([*dets, _det(0, off_map, 1.0)], connectivity, doppler_bins=doppler_bins)


def test_group_peaks_joins_the_doppler_edge_rows():
    dets = [_det(10, -64, 5.0), _det(10, 63, 9.0), _det(11, 62, 4.0)]
    assert group_peaks(dets, doppler_bins=128) == [dets[1]]
    assert group_peaks(dets, 4, doppler_bins=128) == [dets[2], dets[1]]  # 62 is diagonal
    assert len(group_peaks(dets, doppler_bins=130)) == 2  # -64 and 63 are not neighbours


def test_target_on_a_doppler_edge_row_gives_one_point(c0):
    # One target on each row from +-58 out to the edge (-63.9 is just inside
    # the velocity limit): the default config's circular Doppler CFAR and
    # wrapped grouping leave one point, at the target's own Doppler bin.
    cfg = PipelineConfig(radar=c0)
    resolution = derived_params(c0).velocity_resolution_m_s
    wrong = []
    for row in [-63.9, *range(-63, -57), *range(58, 64)]:
        for amplitude in (1000.0, 10000.0):
            for seed in (0, 1):
                target = PointTarget(10.0, row * resolution, 20.0, amplitude=amplitude)
                cube = synthesize_frame(c0, [target], NoiseSpec(1000.0, seed))
                velocities = [p.radial_velocity_m_s
                              for p in process_frame(cfg, cube).point_cloud.points]
                if velocities != [bin_to_velocity(round(row), c0)]:
                    wrong.append((row, amplitude, seed, velocities))
    assert wrong == []


def test_to_point_cloud_geometry(c0):
    det = Detection(51, 20, 100.0, 10.0, 20.0)
    cloud = to_point_cloud([det], [[(20.0, 1.0)]], c0, frame_index=2)
    assert len(cloud) == 1
    p = cloud.points[0]
    expected_range = bin_to_range(51, c0)
    expected_v = bin_to_velocity(20, c0)
    assert p.range_m == pytest.approx(expected_range, rel=1e-12)
    assert p.radial_velocity_m_s == pytest.approx(expected_v, rel=1e-12)
    assert p.x_m == pytest.approx(expected_range * math.sin(math.radians(20)), rel=1e-12)
    assert p.y_m == pytest.approx(expected_range * math.cos(math.radians(20)), rel=1e-12)
    assert cloud.frame_index == 2


def test_to_point_cloud_broadside_and_empty(c0):
    det = Detection(51, 0, 100.0, 10.0, 20.0)
    cloud = to_point_cloud([det], [[(0.0, 1.0)]], c0)
    assert cloud.points[0].x_m == pytest.approx(0.0, abs=1e-12)
    assert cloud.points[0].y_m == pytest.approx(cloud.points[0].range_m)
    assert len(to_point_cloud([], [], c0)) == 0
    assert len(to_point_cloud([det], [[]], c0)) == 0  # no angle -> dropped


def test_to_point_cloud_length_mismatch(c0):
    with pytest.raises(ValueError):
        to_point_cloud([Detection(1, 0, 2.0, 1.0, 3.0)], [], c0)


def test_point_cloud_csv_format(tmp_path, c0):
    det = Detection(51, 20, 100.0, 10.0, 12.345678)
    cloud = to_point_cloud([det], [[(20.0, 1.0)]], c0, frame_index=7)
    path = tmp_path / "points.csv"
    write_point_cloud_csv(cloud, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frame,range_m,azimuth_deg,velocity_m_s,snr_db,x_m,y_m"
    fields = lines[1].split(",")
    assert fields[0] == "7"
    assert float(fields[1]) == pytest.approx(bin_to_range(51, c0), rel=1e-5)
    assert fields[4] == "12.3457"  # six significant digits
