"""Asymmetric relativistic quantum Otto cycle: energetics, optima, phases.

The package computes exact and high-temperature cycle energetics for a
relativistically boosted harmonic working medium whose two work strokes
may be quenched asymmetrically, locates the efficiency / work /
trade-off optima in closed form with independent numeric verification,
classifies operational modes, and ships a CLI (`otto-rel`) that emits
reproducible CSV/JSON.

Every name a module lists in its ``__all__`` is re-exported here.
"""

from . import core, cubic, high_temperature, optima, oracle, phase_diagram
from .core import *  # noqa: F401,F403
from .cubic import *  # noqa: F401,F403
from .high_temperature import *  # noqa: F401,F403
from .optima import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .phase_diagram import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (core, high_temperature, cubic, oracle, optima, phase_diagram)
    for name in module.__all__
]
