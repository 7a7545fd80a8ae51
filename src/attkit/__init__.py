"""Rotation-matrix attitude determination and filtering on SO(3).

No quaternions, Euler angles, or other local attitude coordinates anywhere:
attitudes are proper orthogonal matrices throughout. The package provides
closed-form weighted attitude determination from vector observations,
structure-preserving rigid-body propagation in an attitude-dependent
potential, continuous-discrete filters with and without rate measurements,
synthetic measurement generation, and a command-line harness.
"""

from .errors import *
from .so3 import *
from .wahba import *
from .dynamics import *
from .filters import *
from .simulate import *

__version__ = "0.1.0"

__all__ = sorted(
    errors.__all__ + so3.__all__ + wahba.__all__
    + dynamics.__all__ + filters.__all__ + simulate.__all__
)
