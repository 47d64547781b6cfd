"""twistwalk: twisted random walks on the rotation-extended plane.

Simulates the recursion S_n = e^{i beta} S_{n-1} + X_{n-1} over pluggable
stationary increment processes, predicts its variance from spectral data,
and turns replica ensembles into recurrence/transience diagnostics.
"""

__version__ = "0.1.0"

from .group import (
    Angle,
    CocycleDataError,
    GroupElement,
    cocycle,
    contraction_threshold,
    g_inv,
    g_mul,
    identity,
    proj_c,
    scale,
)
from .processes import (
    IID,
    ConfigError,
    CovarianceSequence,
    GaussianSpectral,
    IncrementStream,
    MarkovChain,
    MovingAverage,
    ProcessFamily,
    Rotation,
    SpecError,
    StreamExhausted,
    covariance,
    golden_mean_spec,
    make_stream,
    parry_chain,
    spec_from_json,
    spectral_measure,
)
from .spectral import (
    HalfPowerSingularity,
    SpectralError,
    SpectralMeasure,
    VarianceCurve,
    covariance_from_measure,
    empirical_autocovariance,
    fejer,
    predicted_variance,
    spectral_convolve,
)
from .walk import (
    CheckpointEnsemble,
    ResourceCapError,
    WalkConfig,
    blocked_increments,
    default_ecf_tgrid,
    geometric_checkpoints,
    simulate,
    step,
    structured_ecf_tgrid,
)
from .diagnostics import (
    DiagnosticsReport,
    SmallBallTable,
    build_report,
    divisibility_from_sums,
    divisibility_noise_floor,
    divisibility_stat,
    ecf,
    rotation_invariance_from_sums,
    recurrence_constant,
    returns_growth,
    rotation_invariance_noise_floor,
    rotation_invariance_stat,
    small_ball,
    tau,
    transience_summability,
    unscaled_ball,
)

__all__ = [name for name in dir() if not name.startswith("_")]
