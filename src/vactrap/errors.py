"""Exception and warning taxonomy shared across the package.

Every guard in the package raises one of these types so callers (and the
command-line tool) can map failures onto exit codes without string matching:
configuration problems are ``ConfigurationError`` subclasses, numerical
guards are ``NumericalGuard`` subclasses.  Three refusals are stated once
each: a count that is not an integer or is below its minimum (levels, modes,
grid points), ``_require_count``; a quantity that is not positive and finite,
given (mass, trap fields, frequencies, durations, the bath rate) or derived
(the damping rate, the long-wavelength bound, the Compton frequency, each
shift logarithm's argument, ``m omega_c / hbar``, so that a closed form past
the float range is an input error, not a printed ``inf``, ``0`` or ``nan``;
the damping rate is also held to the smallest normal double, below which
its shifts keep few digits), ``_require_positive``; and a request for more
bytes than the machine has, ``_refuse_past_memory``.
"""
from __future__ import annotations

import math
import operator
import os

__all__ = [
    "VactrapError",
    "ConfigurationError",
    "MissingParameter",
    "ConfigParseError",
    "SingularCutoff",
    "DimensionMismatch",
    "DimensionTooSmall",
    "TruncationRisk",
    "NumericalGuard",
    "ToleranceFailure",
    "PositivityBreach",
    "GuardBandOverflow",
    "SingularDenominator",
    "FitFailure",
    "GuardExceeded",
    "LongWavelengthWarning",
]


class VactrapError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(VactrapError):
    """Invalid or inconsistent user input (bad config, bad arguments)."""


class MissingParameter(ConfigurationError):
    """A required physical parameter was not supplied (e.g. trap geometry
    needed by the selected cut-off rule)."""


class ConfigParseError(ConfigurationError):
    """A config file or config string could not be parsed, or contains
    unknown keys."""


class SingularCutoff(ConfigurationError):
    """The cut-off frequency coincides with the trap frequency, where the
    logarithmic shift integrals diverge."""


class DimensionMismatch(ConfigurationError):
    """Operator/state dimensions disagree."""


class DimensionTooSmall(ConfigurationError):
    """The truncated level count is below the minimum needed for a given
    operation (e.g. ``FockSpace`` needs at least two levels)."""


class TruncationRisk(ConfigurationError):
    """A requested state would place significant weight near the truncation
    edge (mean excitation above dim/4)."""


class NumericalGuard(VactrapError):
    """Base class for run-time numerical failures (not user input)."""


class ToleranceFailure(NumericalGuard):
    """A propagation that cannot be trusted: its generator overflows (refused
    when it is built), or its span is too long for the propagator's
    rounding (``||G||_1 (t1 - t0)`` reaches ``1/eps``, refused before either
    propagation method runs), or the propagated trajectory is not finite, or
    its Hilbert-Schmidt norm or its trace drift passed the accepted limit,
    or the witness read off it (the packed trace of ``b^2 + (b+)^2``)
    disagrees with the ladder sum beyond rounding.  A norm or trace-drift
    failure carries the full record of the run as ``record``; the other
    checks carry ``None``."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class PositivityBreach(NumericalGuard):
    """A propagated density matrix developed a negative eigenvalue below
    the accepted floor.  Carries the first offending time and eigenvalue,
    and the full record of the run as ``record``."""

    def __init__(self, message: str, time: float, min_eigenvalue: float, record):
        super().__init__(message)
        self.time = time
        self.min_eigenvalue = min_eigenvalue
        self.record = record


class GuardBandOverflow(NumericalGuard):
    """Population leaked into the top two truncated levels beyond the
    accepted threshold.  Carries the first offending time, and the full
    record of the run as ``record``."""

    def __init__(self, message: str, time: float, population: float, record):
        super().__init__(message)
        self.time = time
        self.population = population
        self.record = record


class SingularDenominator(ConfigurationError):
    """A perturbation-theory constant was requested at a cut-off where one
    of its logarithms diverges (cut-off equal to 1x, 2x or 3x the trap
    frequency)."""


class FitFailure(NumericalGuard):
    """A rate/phase fit did not converge or did not describe the data
    (e.g. oscillatory population instead of exponential decay)."""


class GuardExceeded(ConfigurationError):
    """A model too large for the machine: a bath oracle's run, a generator's
    dense matrix or a time or field grid that would need more bytes than
    the machine's physical memory.  Refused before anything is allocated."""


class LongWavelengthWarning(UserWarning):
    """The chosen cut-off violates the long-wavelength bound; results are
    still produced but the dipole-coupling premise is strained."""


def _require_count(
    value, name: str, error: type[VactrapError] = DimensionMismatch, minimum: int | None = None
) -> None:
    """Refuse with ``error`` a count below ``minimum`` or not an integer (a
    numpy integer is one), before a float reaches ``range`` or ``linspace``."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value}")


def _require_positive(
    value, name, error: type[VactrapError] = ConfigurationError, minimum: float | None = None
) -> None:
    """Refuse with ``error`` anything but a positive finite number, and one
    below ``minimum`` when it is given.  ``name`` is a string, or a function
    giving one, called only on refusal."""
    if not 0.0 < value < math.inf:
        rule = "positive and finite"
    elif minimum is not None and value < minimum:
        rule = f"at least {minimum}"
    else:
        return
    raise error(f"{name() if callable(name) else name} must be {rule}, got {value}")


def _refuse_past_memory(peak: int, what: str, task: str) -> None:
    """Raise ``GuardExceeded`` when ``peak`` bytes exceed the machine's
    physical memory (page size times physical pages): "``what`` needs ...
    GiB to ``task``".  Callers check before they allocate; the figure is
    total memory, not free memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if peak > memory:
        raise GuardExceeded(
            f"{what} needs {peak / 2**30:.4g} GiB to {task}, "
            f"more than the {memory / 2**30:.4g} GiB of physical memory"
        )
