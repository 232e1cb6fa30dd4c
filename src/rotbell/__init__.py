"""rotbell: detection of genuine N-partite quantum correlations.

The package computes, for any N-qubit pure state or density matrix, the
violation factor of a rotationally invariant Bell-type inequality built from
measurements restricted to local x-y planes, and classifies the state against
the ladder of k-separability thresholds.  Every closed form has a brute-force
numerical counterpart in :mod:`rotbell.oracle`.
"""

from . import correlation, oracle, separability, states, witness
from .correlation import *  # noqa: F403
from .oracle import *  # noqa: F403
from .separability import *  # noqa: F403
from .states import *  # noqa: F403
from .witness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for mod in (correlation, oracle, separability, states, witness) for name in mod.__all__
]
