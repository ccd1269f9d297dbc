"""Limited-memory integral predictors for signals with exponentially
decaying Fourier transforms."""

from .kernels import (
    MollifierKernel,
    TargetKernel,
    bump_kernel,
    h_spectrum,
    kernel_derivative,
    mollify,
    q_spectrum,
    q_transform,
)
from .polynomials import (
    ApproxReport,
    Polynomial,
    alpha_closed_form,
    alpha_grid_bound,
    alpha_of,
    approx_report,
    projection_alpha,
    projection_psi,
    taylor_alpha_bound,
    taylor_psi,
)
from .predictor import (
    BoundRangeError,
    ClassMembershipError,
    NoiseReport,
    PredictionResult,
    PredictorKernel,
    beta_energy,
    build_predictor,
    empirical_noise_error,
    error_bound,
    error_bound_parts,
    noise_bound,
    predict,
    predict_values,
    run_prediction,
    target,
    target_values,
    transfer_norms,
)
from .signals import (
    ClassReport,
    Signal,
    add_noise,
    chirp_noise,
    class_norm,
    cosine_modulated_poisson,
    gaussian_signal,
    noise_norm,
    poisson_signal,
    superposition,
    zero_signal,
)
from .spectral_core import (
    SpectralGrid,
    TimeGrid,
    default_omega_max,
    fourier_transform,
    fourier_transform_at,
    laplace_transform,
    parseval_check,
)
from .weighted_space import (
    WeightedNorm,
    exponential_moment,
    monomial_moment,
    weighted_norm_sq,
)

__version__ = "0.1.0"
