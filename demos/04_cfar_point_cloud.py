"""From a raw frame to a point cloud: CFAR, grouping, per-detection angles.

Runs the whole chain two ways: stage by stage to show what each step leaves
behind, then in one shot through the pipeline front end with a JSON-style
configuration.

Run:  python demos/04_cfar_point_cloud.py
"""

from pathlib import Path

from radarkit import (
    CfarParams,
    NoiseSpec,
    PipelineConfig,
    PointTarget,
    RadarConfig,
    WindowKind,
    accumulate_power,
    cfar_2d,
    doppler_processing,
    group_peaks,
    range_processing,
    run_pipeline,
    synthesize_frame,
    write_point_cloud_csv,
)

cfg = RadarConfig(2, 4, 128, 256, 10e6, 3.0e13, 77e9, 60e-6)
scene = [
    PointTarget(range_m=8.0, radial_velocity_m_s=1.5, azimuth_deg=-25.0, amplitude=600.0),
    PointTarget(range_m=19.5, radial_velocity_m_s=-4.0, azimuth_deg=10.0, amplitude=500.0),
    PointTarget(range_m=33.0, radial_velocity_m_s=0.0, azimuth_deg=40.0, amplitude=400.0),
]
cube = synthesize_frame(cfg, scene, NoiseSpec(noise_power=250.0, seed=11))

# Stage by stage: the 2-d CFAR flags every cell of each blob, grouping keeps
# one cell per physical target. The Doppler axis wraps, so the Doppler CFAR
# window and the grouping both treat it as circular.
rd = doppler_processing(range_processing(cube, WindowKind.HANN), cfg, WindowKind.HANN)
linear_map = accumulate_power(rd)
cfar = CfarParams(guard_cells=2, train_cells=8, pfa=1e-4)
doppler_cfar = CfarParams(guard_cells=2, train_cells=8, pfa=1e-4, circular=True)
raw = cfar_2d(linear_map, cfar, doppler_cfar)
grouped = group_peaks(raw, connectivity=8, doppler_bins=linear_map.shape[0])
print(f"CFAR flagged {len(raw)} cells; grouping reduced them to {len(grouped)} targets:")
for det in grouped:
    print(
        f"  range bin {det.range_bin:3d}, doppler bin {det.doppler_bin:+4d}, "
        f"SNR {det.snr_db:5.1f} dB"
    )

# Same thing through the pipeline, which also estimates an azimuth per
# detection and converts bins to meters and meters/second.
pipeline_cfg = PipelineConfig(radar=cfg, range_cfar=cfar, doppler_cfar=doppler_cfar)
result = run_pipeline(pipeline_cfg, [cube])[0]
print(f"\npipeline point cloud ({len(result.point_cloud)} points):")
print(f"  {'range':>7s} {'vel':>7s} {'azim':>7s} {'x':>7s} {'y':>7s} {'snr':>6s}")
for p in result.point_cloud.points:
    print(
        f"  {p.range_m:7.2f} {p.radial_velocity_m_s:+7.2f} {p.azimuth_deg:+7.1f} "
        f"{p.x_m:7.2f} {p.y_m:7.2f} {p.snr_db:6.1f}"
    )

out = Path("demo_output")
out.mkdir(exist_ok=True)
write_point_cloud_csv(result.point_cloud, out / "point_cloud.csv")
print(f"\nwrote {out}/point_cloud.csv")
print("ground truth for comparison:")
for t in scene:
    print(f"  {t.range_m:7.2f} {t.radial_velocity_m_s:+7.2f} {t.azimuth_deg:+7.1f}")
