"""Configure a radar and inspect what the waveform buys you.

A 77 GHz automotive-style setup: 2 TX x 4 RX, 128 chirps per TX, 256 complex
samples per chirp at 10 MHz, 30 MHz/us slope. Walks through validation, the
derived resolutions/ambiguity limits, and bin-to-physical conversions.

Run:  python demos/01_radar_parameters.py
"""

import dataclasses

from radarkit import (
    ConfigError,
    RadarConfig,
    bin_to_range,
    bin_to_velocity,
    derived_params,
)

# Construction validates: a RadarConfig that exists is a valid one.
cfg = RadarConfig(
    num_tx=2,
    num_rx=4,
    chirps_per_frame_per_tx=128,
    samples_per_chirp=256,
    sample_rate_hz=10e6,
    chirp_slope_hz_per_s=30e6 / 1e-6,   # 30 MHz per microsecond
    start_freq_hz=77e9,
    chirp_period_s=60e-6,
)
print("config accepted:")
for key, value in dataclasses.asdict(cfg).items():
    print(f"  {key:28s} {value}")

dp = derived_params(cfg)
print("\nderived parameters:")
print(f"  wavelength            {dp.wavelength_m * 1e3:.4f} mm")
print(f"  range resolution      {dp.range_resolution_m:.4f} m")
print(f"  max range             {dp.max_range_m:.2f} m")
print(f"  velocity resolution   {dp.velocity_resolution_m_s:.4f} m/s")
print(f"  max unambiguous vel   +-{dp.max_unambiguous_velocity_m_s:.3f} m/s")
print(f"  broadside beamwidth   {dp.angle_resolution_deg_broadside:.1f} deg")
print(f"  virtual receivers     {dp.num_virtual_rx}  (= {cfg.num_tx} TX x {cfg.num_rx} RX)")

# The TDM trade-off: every extra TX divides the unambiguous velocity.
single_tx = dataclasses.replace(cfg, num_tx=1, tx_spacing_wavelengths=None)
print(
    f"\nwith a single TX the velocity limit would be "
    f"+-{derived_params(single_tx).max_unambiguous_velocity_m_s:.3f} m/s, "
    "twice as wide, at half the angular aperture."
)

print("\nbin conversions:")
for rbin in (0, 51, 255):
    print(f"  range bin {rbin:3d} -> {bin_to_range(rbin, cfg):7.3f} m")
for dbin in (-64, 0, 20, 63):
    print(f"  doppler bin {dbin:+4d} -> {bin_to_velocity(dbin, cfg):+7.3f} m/s")

# Construction names the first broken constraint.
try:
    dataclasses.replace(cfg, sample_rate_hz=1e6)
except ConfigError as e:
    print(f"\nsampling slower than the ramp allows is rejected:\n  {e}")
