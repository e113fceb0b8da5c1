"""Vacuum-field signatures of a harmonically trapped charge.

Closed-form radiative rates and trap-frequency shifts with and without the
rotating-wave approximation, the corresponding master-equation generators
on truncated ladder spaces, trajectory integration with positivity and
truncation diagnostics, a two-quantum coherence witness, and two
independent oracles (time-independent perturbation theory and brute-force
evolution against a discretized bath).  The ``vactrap`` console script
exposes the sweep/report layer.

Each module declares its public names once, in its ``__all__``; the package
re-exports them.
"""
from .errors import *
from .params import *
from .rates import *
from .liouville import *
from .evolve import *
from .observables import *
from .perturbation import *
from .bath import *
from .sweeps import *
from .cli import run_cli

__version__ = "0.1.0"
