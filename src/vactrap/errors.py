"""Exception and warning taxonomy shared across the package.

Every guard in the package raises one of these types so callers (and the
command-line tool) can map failures onto exit codes without string matching:
configuration problems are ``ConfigurationError`` subclasses, numerical
guards are ``NumericalGuard`` subclasses.
"""
from __future__ import annotations


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
    operation (e.g. the two-quantum coherence row needs five levels)."""


class TruncationRisk(ConfigurationError):
    """A requested state would place significant weight near the truncation
    edge (mean excitation above dim/4)."""


class NumericalGuard(VactrapError):
    """Base class for run-time numerical failures (not user input)."""


class ToleranceFailure(NumericalGuard):
    """A propagation that cannot be trusted: its span is too long for the
    propagator's rounding (``||G||_1 (t1 - t0)`` reaches ``1/eps``, refused
    before either propagation method runs), or the propagated trajectory is
    not finite, or its Hilbert-Schmidt norm or its trace drift passed the
    accepted limit.  A norm or trace-drift failure carries the full record
    of the run as ``record``; the span refusal and the non-finite check,
    raised before a record exists, carry ``None``."""

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
    """A model too large to build: a brute-force bath past the hard
    dimension guard (2**16), or a dense generator whose build would need
    more bytes than the machine's physical memory."""


class LongWavelengthWarning(UserWarning):
    """The chosen cut-off violates the long-wavelength bound; results are
    still produced but the dipole-coupling premise is strained."""
