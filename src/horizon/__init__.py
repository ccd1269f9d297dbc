"""Limited-memory integral predictors for signals with exponentially
decaying Fourier transforms."""

from .kernels import (
    TargetKernel,
    bump_kernel,
    h_spectrum,
    q_spectrum,
    q_transform,
)
from .polynomials import (
    Polynomial,
    alpha_closed_form,
    alpha_grid_bound,
    alpha_of,
    projection_psi,
    taylor_alpha_bound,
    taylor_psi,
)
from .predictor import (
    BoundRangeError,
    ClassMembershipError,
    PredictorKernel,
    beta_energy,
    build_predictor,
    error_bound_parts,
    moment_tables,
    predict_values,
    target_values,
    transfer_norms,
)
from .signals import (
    ClassReport,
    Signal,
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
    fourier_transform_at,
    laplace_transform,
    parseval_check,
)
from .weighted_space import exponential_moment, monomial_moment

__version__ = "0.1.0"
