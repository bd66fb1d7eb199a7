"""Discrete diffusion over categorical sequences.

Implements interpolating noise processes (uniform and absorbing), the
continuous-time variational objective for uniform-noise models, guided
sampling (classifier-free and classifier-based), a CTMC cross-check of
the reverse process, and a brute-force verification suite.
"""

__version__ = "0.1.0"

from .core import Categorical, NoiseSchedule, Vocabulary
from .forward import PriorSpec, marginal, posterior

__all__ = [
    "Categorical",
    "NoiseSchedule",
    "Vocabulary",
    "PriorSpec",
    "marginal",
    "posterior",
]
