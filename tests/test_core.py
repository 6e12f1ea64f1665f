import dataclasses
import math

import numpy as np
import pytest

from radarkit import (
    SPEED_OF_LIGHT,
    AngleSpectrum,
    ConfigError,
    CovarianceMatrix,
    DataCube,
    RadarConfig,
    RangeDopplerCube,
    VirtualArray,
    bartlett,
    capon,
    bin_to_range,
    bin_to_velocity,
    derived_params,
    music,
    validate_config,
)
from radarkit.aoa import AoaPlan

from conftest import small_config


def test_c0_accepted(c0):
    assert validate_config(c0) is c0


INVALID_FIELDS = [
    ("num_tx", 0),
    ("num_rx", 0),
    ("chirps_per_frame_per_tx", 0),
    ("samples_per_chirp", 1),
    ("sample_rate_hz", -1.0),
    ("chirp_slope_hz_per_s", 0.0),
    ("start_freq_hz", -77e9),
    ("chirp_period_s", 0.0),
    ("rx_spacing_wavelengths", -0.5),
    ("tx_spacing_wavelengths", 0.0),
]


@pytest.mark.parametrize("field,value", INVALID_FIELDS)
def test_validate_rejects_and_names_field(c0, field, value):
    with pytest.raises(ConfigError, match=field):
        validate_config(dataclasses.replace(c0, **{field: value}))


@pytest.mark.parametrize("field,value", INVALID_FIELDS)
def test_construction_rejects_and_names_field(c0, field, value):
    with pytest.raises(ConfigError, match=field):
        RadarConfig(**{**dataclasses.asdict(c0), field: value})


def test_validate_rejects_non_integer_count(c0):
    with pytest.raises(ConfigError, match="num_rx"):
        validate_config(dataclasses.replace(c0, num_rx=4.0))


def test_validate_rejects_sampling_outrunning_ramp(c0):
    # 256 samples at 1 MHz need 256 us, longer than the 60 us chirp.
    with pytest.raises(ConfigError, match="chirp_period_s"):
        validate_config(dataclasses.replace(c0, sample_rate_hz=1e6))


def test_tx_spacing_defaults_to_filled_virtual_line():
    cfg = small_config(num_tx=3, num_rx=4)
    assert cfg.tx_spacing_wavelengths == pytest.approx(4 * 0.5)


def test_derived_params_c0(c0):
    # Oracle: the stated closed forms evaluated here with the exact c.
    dp = derived_params(c0)
    c = 299_792_458.0
    lam = c / 77e9
    assert dp.num_virtual_rx == 8
    assert dp.wavelength_m == pytest.approx(lam, rel=1e-12)
    assert dp.range_resolution_m == pytest.approx(
        c * 10e6 / (2 * 3.0e13 * 256), rel=1e-12
    )
    assert dp.max_range_m == pytest.approx(c * 10e6 / (2 * 3.0e13), rel=1e-12)
    assert dp.velocity_resolution_m_s == pytest.approx(
        lam / (2 * 128 * 2 * 60e-6), rel=1e-12
    )
    assert dp.max_unambiguous_velocity_m_s == pytest.approx(
        lam / (4 * 2 * 60e-6), rel=1e-12
    )
    # 8-element half-wavelength virtual line: ~14.3 degree broadside beamwidth.
    assert dp.angle_resolution_deg_broadside == pytest.approx(
        math.degrees(1.0 / 4.0), rel=1e-12
    )
    # Frozen values (same formulas, evaluated once by hand).
    assert dp.range_resolution_m == pytest.approx(0.19517738151041666, rel=1e-13)
    assert dp.max_range_m == pytest.approx(49.965409666666666, rel=1e-13)
    assert dp.velocity_resolution_m_s == pytest.approx(0.1267385594223485, rel=1e-13)
    assert dp.max_unambiguous_velocity_m_s == pytest.approx(8.111267803030303, rel=1e-13)


def test_derived_params_is_pure(c0):
    twin = RadarConfig(**dataclasses.asdict(c0))
    assert derived_params(c0) == derived_params(twin)


def test_doubling_samples_halves_range_resolution(c0):
    dp = derived_params(c0)
    dp2 = derived_params(
        dataclasses.replace(c0, samples_per_chirp=2 * c0.samples_per_chirp)
    )
    assert dp2.range_resolution_m == pytest.approx(dp.range_resolution_m / 2, rel=1e-12)
    assert dp2.max_range_m == pytest.approx(dp.max_range_m, rel=1e-12)


def test_doubling_chirps_halves_velocity_resolution(c0):
    dp = derived_params(c0)
    dp2 = derived_params(
        dataclasses.replace(
            c0, chirps_per_frame_per_tx=2 * c0.chirps_per_frame_per_tx
        )
    )
    assert dp2.velocity_resolution_m_s == pytest.approx(
        dp.velocity_resolution_m_s / 2, rel=1e-12
    )
    assert dp2.max_unambiguous_velocity_m_s == pytest.approx(
        dp.max_unambiguous_velocity_m_s, rel=1e-12
    )


def test_bin_to_range(c0):
    dp = derived_params(c0)
    assert bin_to_range(0, c0) == 0.0
    assert bin_to_range(51, c0) == pytest.approx(51 * dp.range_resolution_m, rel=1e-12)
    ranges = [bin_to_range(b, c0) for b in range(c0.samples_per_chirp)]
    assert all(b > a for a, b in zip(ranges, ranges[1:]))
    with pytest.raises(IndexError):
        bin_to_range(-1, c0)
    with pytest.raises(IndexError):
        bin_to_range(256, c0)


def test_bin_to_velocity(c0):
    dp = derived_params(c0)
    assert bin_to_velocity(0, c0) == 0.0
    assert bin_to_velocity(-64, c0) == pytest.approx(
        -dp.max_unambiguous_velocity_m_s, rel=1e-12
    )
    assert bin_to_velocity(20, c0) == pytest.approx(
        20 * dp.velocity_resolution_m_s, rel=1e-12
    )
    with pytest.raises(IndexError):
        bin_to_velocity(-65, c0)
    with pytest.raises(IndexError):
        bin_to_velocity(64, c0)


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299_792_458.0


def test_data_cube_shape_enforced():
    cfg = small_config()
    with pytest.raises(ConfigError, match="shape"):
        DataCube(np.zeros((3, 2, 16), dtype=complex), 0, cfg)


def test_data_cube_rejects_nan():
    cfg = small_config()
    data = np.zeros((16, 2, 16), dtype=complex)
    data[0, 0, 0] = np.nan
    with pytest.raises(ConfigError, match="NaN"):
        DataCube(data, 0, cfg)


def test_data_cube_rejects_negative_frame_index():
    cfg = small_config()
    with pytest.raises(ConfigError, match="frame_index"):
        DataCube(np.zeros((16, 2, 16), dtype=complex), -1, cfg)


def test_data_cube_is_immutable():
    cfg = small_config()
    cube = DataCube(np.zeros((16, 2, 16), dtype=complex), 0, cfg)
    with pytest.raises(ValueError):
        cube.data[0, 0, 0] = 1.0


_SMALL = small_config()
_ARRAY = VirtualArray(np.arange(4) * 0.5)
_R = CovarianceMatrix(np.eye(4, dtype=complex), 4)
_GRID = np.linspace(-60.0, 60.0, 7)
_PAIR_LAG = np.array([0, 1, 2, 0, 1, 0])  # the 6 pairs of _ARRAY on its 3 lags
_PHASORS = np.ones((2, 3, 7))
# Each entry: a fresh caller's array, and the array an object built from it holds.
HOLDERS = {
    "DataCube": (lambda: np.zeros((16, 2, 16), complex),
                 lambda a: DataCube(a, 0, _SMALL).data),
    "RangeDopplerCube": (lambda: np.zeros((8, 4, 16), complex),
                         lambda a: RangeDopplerCube(a, _SMALL).data),
    "VirtualArray": (lambda: np.arange(4) * 0.5,
                     lambda a: VirtualArray(a).positions_wavelengths),
    "AoaPlan.tdm_phase": (lambda: np.ones((8, 4), complex),
                          lambda a: AoaPlan(_ARRAY, a).tdm_phase),
    "AoaPlan.grid_deg": (lambda: _GRID.copy(),
                         lambda a: AoaPlan(_ARRAY, None, a, _PAIR_LAG, _PHASORS).grid_deg),
    "AoaPlan.pair_lag": (lambda: _PAIR_LAG.copy(),
                         lambda a: AoaPlan(_ARRAY, None, _GRID, a, _PHASORS).pair_lag),
    "AoaPlan.phasors": (lambda: _PHASORS.copy(),
                        lambda a: AoaPlan(_ARRAY, None, _GRID, _PAIR_LAG, a).phasors),
    "CovarianceMatrix": (lambda: np.eye(3, dtype=complex),
                         lambda a: CovarianceMatrix(a, 3).matrix),
    "AngleSpectrum.angles_deg": (lambda: _GRID.copy(),
                                 lambda a: AngleSpectrum(a, np.ones(7)).angles_deg),
    "AngleSpectrum.power": (lambda: np.ones(7), lambda a: AngleSpectrum(_GRID, a).power),
    "bartlett": (lambda: _GRID.copy(), lambda a: bartlett(_R, _ARRAY, grid_deg=a).angles_deg),
    "capon": (lambda: _GRID.copy(), lambda a: capon(_R, _ARRAY, grid_deg=a).angles_deg),
    "music": (lambda: _GRID.copy(),
              lambda a: music(_R, _ARRAY, 1, grid_deg=a).angles_deg),
}


@pytest.mark.parametrize("make, hold", HOLDERS.values(), ids=HOLDERS.keys())
def test_held_arrays_are_read_only_views_of_the_callers_array(make, hold):
    a = make()
    held = hold(a)
    assert a.flags.writeable
    assert not held.flags.writeable and held.flags.c_contiguous
    assert np.shares_memory(held, a)  # a view: no copy when layout and dtype fit
    with pytest.raises(ValueError):
        held[...] = 0


def test_held_array_is_a_contiguous_copy_when_the_layout_needs_one():
    a = np.zeros((16, 16, 2), complex).transpose(0, 2, 1)
    held = DataCube(a, 0, _SMALL).data
    assert a.flags.writeable and not np.shares_memory(held, a)
    assert held.flags.c_contiguous and not held.flags.writeable
