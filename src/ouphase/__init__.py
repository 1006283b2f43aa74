"""Simulation and closed-form analysis of continuous optical phase tracking.

A mean-reverting stochastic phase is observed through shot-noise-limited
detection (feedback homodyne or dual homodyne), estimated offline by causal,
anticausal and time-symmetric exponential averaging, and every Monte Carlo
error is checked against exact variance formulas.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: E402,F401,F403  each module's __all__ is its public API
from .stochastic import *  # noqa: E402,F401,F403
from .detection import *  # noqa: E402,F401,F403
from .estimators import *  # noqa: E402,F401,F403
from .analytics import *  # noqa: E402,F401,F403
from .experiment import *  # noqa: E402,F401,F403
from . import analytics, detection, errors, estimators, experiment, stochastic  # noqa: E402

_MODULES = (errors, stochastic, detection, estimators, analytics, experiment)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
