"""Limited-memory integral predictors for signals with exponentially
decaying Fourier transforms.

Each layer is imported from its module (``horizon.signals``,
``horizon.predictor``, ...), so a command loads only what it runs.
"""

__version__ = "0.1.0"
