"""Lifetime analysis toolkit for sensor networks with collaborative
beamforming and cooperative transmission.

Subpackages cover special-function numerics, CB/CT gain models, the
2D-disk bypass optimization, a revised simplex LP solver, max-min
lifetime routing, and experiment drivers with a CLI front end.
"""

__version__ = "0.1.0"
