"""The one grid-scan kernel of Bartlett, Capon and MUSIC against direct forms,
and the MUSIC source count against ``np.median``."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radarkit import (
    NoiseSpec, PipelineConfig, PointTarget, bartlett, capon, covariance, process_frame,
    steering_vector, synthesize_frame,
)
from radarkit.aoa import (
    AoaMethod, VirtualArray, _grid_spectra, _quadratic_forms, _sorted_eigs, _source_counts,
    aoa_plan, estimate_angles,
)
from radarkit.capture import write_capture_file
from radarkit.rangedoppler import doppler_processing, range_processing

from conftest import C0
from test_pipeline import pipeline_dict

REPO = Path(__file__).resolve().parent.parent
ARRAYS = {
    "c0": C0,  # uniform: 7 lags
    "c0_1tx": dataclasses.replace(C0, num_tx=1, tx_spacing_wavelengths=None),
    "tx_0.5": dataclasses.replace(C0, tx_spacing_wavelengths=0.5),  # overlapping: lag 0
    "tx_0.7": dataclasses.replace(C0, tx_spacing_wavelengths=0.7),  # interleaved: lags < 0
}
PLANS = {name: aoa_plan(cfg, 1.0) for name, cfg in ARRAYS.items()}


def test_lag_rows_of_each_array():
    lags = {}
    for name, plan in PLANS.items():
        pos = plan.array.positions_wavelengths
        j, l = np.triu_indices(len(pos), 1)
        rows = np.zeros(plan.phasors.shape[1])
        rows[plan.pair_lag] = pos[l] - pos[j]
        assert np.array_equal(rows[plan.pair_lag], pos[l] - pos[j])  # one lag per row
        assert (np.diff(rows) > 0).all()
        lags[name] = rows
    assert np.array_equal(lags["c0"], 0.5 * np.arange(1, 8))
    assert len(lags["c0_1tx"]) == 3
    assert 0.0 in lags["tx_0.5"]
    assert (lags["tx_0.7"] < 0).any()


def _steering(plan):
    return np.stack([steering_vector(t, plan.array) for t in plan.grid_deg], axis=-1)


@st.composite
def psd_stacks(draw, size):
    """Hermitian positive semi-definite (matrix, size, size) stacks over many
    scales, and the square of the scale."""
    part = st.floats(-1.0, 1.0).map(lambda v: 0.0 if abs(v) < 1e-6 else v)  # no subnormals
    parts = draw(arrays(np.float64, (draw(st.integers(1, 4)), size, size, 2), elements=part))
    scale = 10.0 ** draw(st.integers(-100, 100))
    x = (parts[..., 0] + 1j * parts[..., 1]) * scale
    return x @ np.swapaxes(x.conj(), -1, -2), scale**2


@pytest.mark.parametrize("name", list(ARRAYS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_quadratic_forms_equal_element_by_element_sum(name, data):
    plan = PLANS[name]
    r, scale = data.draw(psd_stacks(len(plan.array)))
    r_inv = np.linalg.inv(r + scale * np.eye(len(plan.array)))  # loaded, as under Capon
    for mat in (r, r_inv):
        q = _quadratic_forms(plan, mat)
        a = _steering(plan)
        direct = np.einsum("jg,djl,lg->dg", a.conj(), mat, a).real
        scale = np.trace(mat, axis1=-2, axis2=-1).real[:, np.newaxis]
        assert np.all(np.abs(q - direct) <= 1e-12 * scale)
        for i in range(len(mat)):  # a row depends only on its own matrix
            assert np.array_equal(_quadratic_forms(plan, mat[i:i + 1])[0], q[i])


@pytest.mark.parametrize("name", list(ARRAYS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_music_scan_equals_noise_subspace_projection(name, data):
    plan = PLANS[name]
    size = len(plan.array)
    r, _ = data.draw(psd_stacks(size))
    k = data.draw(st.integers(1, size - 1))
    power = _grid_spectra(plan, AoaMethod.MUSIC, r, k)
    _, vecs = _sorted_eigs(r)
    a = _steering(plan)
    direct = np.sum(np.abs(np.swapaxes(vecs[:, :, k:].conj(), -1, -2) @ a) ** 2, axis=-2)
    assert np.all(np.abs(1.0 / power - direct) <= 1e-12 * (size - k))


def test_one_element_array_scans_flat_spectra():
    # No lags: a^H M a = M[0, 0], so Bartlett gives R[0, 0] and Capon 1 / R^-1[0, 0].
    R = covariance(np.array([[1 + 2j], [0.5 - 1j], [3j]]))
    assert np.array_equal(bartlett(R, VirtualArray([0.0])).power, np.full(1799, 61 / 12))
    assert np.array_equal(capon(R, VirtualArray([0.0])).power, np.full(1799, 61 / 12))
    radar = dataclasses.replace(C0, num_tx=1, num_rx=1, tx_spacing_wavelengths=None)
    cube = synthesize_frame(radar, [PointTarget(10.0, 1.0, 20.0, 1000.0)], NoiseSpec(1.0, 3))
    for method in (AoaMethod.BARTLETT, AoaMethod.CAPON):
        cfg = PipelineConfig(radar=radar, aoa_method=method)
        process_frame(cfg, cube)
        rd = doppler_processing(range_processing(cube, cfg.range_window), radar,
                                cfg.doppler_window)
        r = np.moveaxis(rd.data[:, :, [51, 52]], -1, 0)  # the target's range column
        r = np.swapaxes(r, -1, -2) @ r.conj() / r.shape[-2]
        flat = _grid_spectra(cfg.aoa_plan, method, r, None)
        assert flat.shape == (2, len(cfg.aoa_plan.grid_deg))
        assert np.allclose(flat, r[:, :, 0].real, rtol=1e-12)  # 1x1: R^-1 = 1 / R
        # A flat spectrum has no strict maximum: the detections get no angles.
        assert estimate_angles(
            cfg.aoa_plan, np.fft.ifftshift(rd.data, axes=0), [8, 8], [51, 52], method,
            fft_bins=cfg.aoa_fft_bins, music_n_sources=None,
            capon_loading=cfg.capon_loading, max_peaks=1,
        ) == [[], []]


def _median_counts(vals):
    return np.sum(vals > 10.0 * np.median(vals, axis=-1, keepdims=True), axis=-1)


@settings(max_examples=200, deadline=None)
@given(vals=st.integers(1, 11).flatmap(lambda n: arrays(
    np.float64, (3, n), elements=st.floats(1e-300, 1e300))))
def test_source_counts_equal_np_median_counts(vals):
    vals = -np.sort(-vals, axis=-1)  # descending, as eigenvalues arrive
    vals[0, :] = vals[0, 0]  # ties
    vals[1, : (vals.shape[1] + 1) // 2] *= 10.0  # values at 10x a middle one
    vals = -np.sort(-vals, axis=-1)
    assert np.array_equal(_source_counts(vals), _median_counts(vals))


def test_source_count_of_a_row_holding_nan_is_zero():
    vals = np.array([[50.0, np.nan, 1.0, 1.0, 1.0], [50.0, 40.0, 1.0, 1.0, 1.0]])
    assert _source_counts(vals).tolist() == [0, 2]
    with np.errstate(invalid="ignore"):
        assert _median_counts(vals).tolist() == [0, 2]


def test_music_process_does_not_import_numpy_ma(tmp_path):
    targets = [PointTarget(10.0 + 3 * i, 1.0 - i, -30.0 + 20 * i, 1000.0) for i in range(4)]
    capture = tmp_path / "capture.orad"
    write_capture_file(capture, C0, [synthesize_frame(C0, targets, NoiseSpec(1000.0, 3))])
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(pipeline_dict(aoa_method="music")), encoding="utf-8")
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "from radarkit.cli import main\n"
        f"assert main(['process', '--config', {str(cfg)!r}, '--in', {str(capture)!r},"
        f" '--out', {str(out)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((out / "frame_0_points.csv").read_text().splitlines()) > 1  # MUSIC ran
    assert proc.stdout.splitlines()[-1] == "False"
