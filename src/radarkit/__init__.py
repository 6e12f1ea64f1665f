"""radarkit: hardware-agnostic FMCW MIMO radar signal processing.

Raw ADC captures (live UDP or recorded files) in; range-Doppler maps, angle
spectra and detected point clouds out. A physics-faithful scene simulator
provides ground truth for end-to-end verification.
"""

__version__ = "0.1.0"

from .core import (  # noqa: E402
    SPEED_OF_LIGHT,
    ConfigError,
    DataCube,
    DerivedParams,
    RadarConfig,
    RadarError,
    bin_to_range,
    bin_to_velocity,
    derived_params,
    validate_config,
)
from .simulate import (  # noqa: E402
    NoiseSpec,
    PointTarget,
    SimError,
    packetize,
    stream_capture,
    synthesize_capture,
    synthesize_frame,
)
from .capture import (  # noqa: E402
    BindError,
    CaptureListener,
    CapturePacket,
    DropReport,
    FormatError,
    PacketReassembler,
    SizeError,
    TransportError,
    deinterleave,
    frame_byte_count,
    read_capture_file,
    reassemble,
    serialize_cube,
    write_capture_file,
)
from .rangedoppler import (  # noqa: E402
    Accumulation,
    LengthError,
    RangeDopplerCube,
    ShapeError,
    WindowKind,
    accumulate_power,
    coherent_gain,
    doppler_processing,
    power_map,
    range_processing,
    to_db,
    window,
    write_power_map_csv,
    write_power_map_pgm,
)
from .aoa import (  # noqa: E402
    AngleSpectrum,
    CovarianceMatrix,
    DomainError,
    GeometryError,
    RankError,
    SingularError,
    VirtualArray,
    aoa_fft,
    bartlett,
    capon,
    covariance,
    default_angle_grid,
    doppler_compensate,
    estimate_source_count,
    music,
    peak_angles,
    steering_vector,
    virtual_array,
    write_angle_spectrum_csv,
)
from .detect import (  # noqa: E402
    CfarParams,
    Detection,
    ParamError,
    PointCloud,
    PointCloudPoint,
    WindowError,
    ca_cfar_1d,
    cfar_2d,
    cfar_alpha,
    group_peaks,
    log_gabor_filter,
    to_point_cloud,
    write_point_cloud_csv,
)
from .pipeline import (  # noqa: E402
    AoaMethod,
    FrameResult,
    LogGaborParams,
    PipelineConfig,
    PipelineError,
    iter_pipeline,
    load_pipeline_config,
    pipeline_config_from_dict,
    process_frame,
    run_pipeline,
)
