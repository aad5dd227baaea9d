"""Numerical laboratory for a long-wave unstable thin-film equation of rimming/coating flow.

The package exports only its version; import names from the submodules
(rimflow.grid, rimflow.model, rimflow.newton, rimflow.evolve, rimflow.steady,
rimflow.bounds, rimflow.cli).
"""

__version__ = "0.1.0"
