"""lrfill: matrix-free low-rank completion of frequency-sliced volumes."""

from .altmin import (
    OuterConfig,
    eta_schedule,
    init_factors,
    interpolate_slice,
)
from .fileio import (
    BadMagicError,
    DimsOverflowError,
    FileFormatError,
    TruncatedFileError,
    VersionError,
    read_mask,
    read_volume,
    write_mask,
    write_volume,
)
from .levelset import (
    LevelSetConfig,
    RootBracketError,
    project_ball,
    solve_levelset,
    value_function,
)
from .pdsolver import (
    DualState,
    FactorPair,
    PdConfig,
    solve_factor,
)
from .pipeline import PipelineConfig, RunResult, load_config, mask_volume, run_interpolation
from .reporting import SliceReport, snr_db
from .sampling import (
    JitterSpec,
    SamplingMask,
    jittered_keep,
    jittered_volume_mask,
    uniform_entry_mask,
)
from .synthgen import EventSpec, PlantSpec, linear_events, observe_slice, plant_slice, ricker
from .transforms import (
    Matricization,
    MeasurementOp,
    apply_sampling,
    singular_decay,
)
from .volume import (
    AxisLayoutError,
    FrequencySlice,
    Volume,
    dft_time_axis,
    freq_values_hz,
    idft_freq_axis,
)

__version__ = "0.1.0"
