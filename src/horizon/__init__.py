"""Limited-memory integral predictors for signals with exponentially
decaying Fourier transforms."""

from .kernels import TargetKernel, q_spectrum
from .polynomials import (
    Polynomial,
    alpha_closed_form,
    projection_psi,
    taylor_alpha_bound,
    taylor_psi,
)
from .predictor import (
    BoundRangeError,
    ClassMembershipError,
    PredictorKernel,
    beta_energy,
    error_bound_parts,
    moment_table,
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
    zero_signal,
)
from .spectral_core import default_omega_max, fourier_transform_at
from .weighted_space import unit_rate_moments

__version__ = "0.1.0"
