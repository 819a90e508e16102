"""Desk-scale classical simulation laboratory for Shor's factoring algorithm.

Exact state-vector simulation of the quantum period-finding subroutine,
the matching closed-form measurement distribution, period recovery via
continued fractions, and the classical five-step pipeline
that turns a recovered period into a factor.

The package root exports only the pipeline entry point; everything else
is reached through its module (``shorlab.numtheory``, ``shorlab.contfrac``,
``shorlab.engine``, ``shorlab.pipeline``, ``shorlab.cli``).
"""

__version__ = "0.1.0"

from .pipeline import ShorConfig, shor_factor

__all__ = ["__version__", "ShorConfig", "shor_factor"]
