"""Parameter sweeps and summary reports built on the closed-form rates.

The magnetic-field sweep holds the apparatus geometry fixed (the axial
amplitude behind the largest-amplitude cutoff and the orbit diameter
behind the de Broglie cutoff) while the trap frequency tracks the field.
That choice is what makes the three cutoffs scale differently with B --
fixed, linear in B, and like sqrt(B) respectively -- and it is the choice
under which the quoted leading-order exponents (3, 2, 5/2 beyond the RWA)
emerge.  The alternative of shrinking the orbit with B would change the
de Broglie column; we fix geometry and note the alternative here rather
than model it.

Scaling exponents are reported as *local* log-log slopes (central
differences), not one global power-law fit: the RWA rows carry logarithmic
corrections, so a single exponent would depend on the fit window and could
not be tested crisply.  The RWA slopes are instead compared against the
closed-form derivative of the shift itself, which is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, _refuse_past_memory, _require_count
from .params import (
    ApproximationMode,
    CutoffKind,
    CutoffSpec,
    ExperimentConfig,
    _cutoff_at,
    cyclotron_frequency,
    lwa_bound,
    parse_cutoff_kind,
    parse_mode,
    spin_coupling_ratio,
)
from .rates import _rate_set_at, damping_rate, frequency_shift, validity_window

__all__ = [
    "SweepResult",
    "Table1Report",
    "ValidityReport",
    "table1",
    "bfield_sweep",
    "midpoint_exponent",
    "rwa_exponent_analytic",
    "validity_report",
]

_GRID_KINDS = (CutoffKind.LARGEST_AMPLITUDE, CutoffKind.DE_BROGLIE, CutoffKind.ZERO_POINT)


def _sweep_cutoff(config: ExperimentConfig, cutoff: CutoffKind | str | None) -> CutoffSpec:
    """The sweep's cut-off: ``cutoff`` is a kind, its name, or None for the
    config's own; the explicit value is kept only for the explicit kind."""
    kind = parse_cutoff_kind(cutoff) if isinstance(cutoff, str) else (cutoff or config.cutoff.kind)
    value = config.cutoff.value if kind is CutoffKind.EXPLICIT else None
    return CutoffSpec(kind=kind, value=value)


@dataclass(frozen=True)
class Table1Report:
    """Relative frequency shifts on the 3 x 2 (cutoff x mode) grid, one per
    fixed ``cutoff_labels`` entry in each mode's row, and the cut-offs' notes."""

    cutoff_labels: ClassVar[tuple[str, str, str]] = ("omega1", "omega2", "omega3")
    with_rwa: tuple[float, float, float]
    beyond_rwa: tuple[float, float, float]
    notes: tuple[str, ...] = ()


def table1(config: ExperimentConfig) -> Table1Report:
    """The six relative shifts at the configuration's trap parameters.

    The cutoff choice in ``config`` is ignored: the grid runs over all
    three physical cutoffs by construction.  Each cut-off's long-wavelength
    verdict, from :func:`vactrap.params._cutoff_at`, is a note, not a warning.
    """
    w = config.omega_c
    rows, notes = [], []
    for kind in _GRID_KINDS:
        omega_max, note = _cutoff_at(config.particle, config.trap, CutoffSpec(kind=kind), w)
        gamma = damping_rate(config.particle, w)
        rows.append([frequency_shift(gamma, w, omega_max, mode) / w for mode in ApproximationMode])
        notes.append(note)
    with_rwa, beyond_rwa = zip(*rows)  # ApproximationMode lists WITH_RWA first
    return Table1Report(with_rwa, beyond_rwa, notes=tuple(dict.fromkeys(filter(None, notes))))


@dataclass(frozen=True)
class SweepResult:
    """Shift magnitudes and local scaling exponents along a field sweep."""

    b_values: np.ndarray
    omega_c_values: np.ndarray
    delta_omega: np.ndarray
    local_exponents: np.ndarray
    mode: ApproximationMode
    cutoff_kind: CutoffKind
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.b_values)
        if not (
            len(self.omega_c_values) == len(self.delta_omega) == len(self.local_exponents) == n
        ):
            raise DimensionMismatch("sweep arrays must have equal length")
        if np.any(np.diff(self.b_values) <= 0):
            raise DimensionMismatch("field values must be strictly increasing")


def bfield_sweep(
    config: ExperimentConfig,
    b_range: tuple[float, float],
    n_points: int,
    mode: ApproximationMode | str | None = None,
    cutoff: CutoffKind | str | None = None,
) -> SweepResult:
    """Frequency shift vs magnetic field on a geometric grid.

    Geometry (d_a, d_c) is taken from ``config`` and held fixed; the trap
    frequency at each point follows from the field.  The cut-off is
    resolved once as a spec; each field is then plain floats: its
    frequency, the cut-off from :func:`vactrap.params._cutoff_at`, and the
    renormalized shift ``mode`` keeps.  Local exponents
    ``d ln|shift| / d ln B`` are central differences, NaN at the ends.  A
    shift that rounds to zero at some field has no logarithm and is a
    ``ConfigurationError``.
    """
    b_lo, b_hi = b_range
    if not (0 < b_lo < b_hi < math.inf):
        raise DimensionMismatch(f"need 0 < b_min < b_max < inf, got {b_range!r}")
    _require_count(n_points, "n_points", minimum=16)  # for stable slopes
    # bytes per field: the tracemalloc peak grows by 73 a field between 1000
    # and 5000 points, over the reference range and where every field is
    # noted past the long-wavelength bound alike
    _refuse_past_memory(73 * n_points, f"a sweep of {n_points} fields", "run")
    the_mode = parse_mode(mode) if isinstance(mode, str) else (mode or config.mode)
    spec = _sweep_cutoff(config, cutoff)

    particle, trap = config.particle, config.trap
    b_values = np.geomspace(b_lo, b_hi, n_points)
    if np.any(np.diff(b_values) <= 0):  # a span of a few ulps repeats fields
        raise DimensionMismatch("field values must be strictly increasing")
    omegas = np.empty(n_points)
    shifts = np.empty(n_points)
    lwa_exceeded = np.zeros(n_points, dtype=bool)
    for i, b in enumerate(b_values.tolist()):
        w = omegas[i] = cyclotron_frequency(particle, b)
        omega_max, note = _cutoff_at(particle, trap, spec, w)
        # dw / w * w: the relative shift's rounding, kept to the last bit
        shifts[i] = frequency_shift(damping_rate(particle, w), w, omega_max, the_mode) / w * w
        if shifts[i] == 0.0:
            raise ConfigurationError(f"the frequency shift at B = {b:.6g} T rounds to zero")
        lwa_exceeded[i] = note is not None

    lnb = np.log(b_values)
    lny = np.log(np.abs(shifts))
    exponents = np.full(n_points, np.nan)
    exponents[1:-1] = (lny[2:] - lny[:-2]) / (lnb[2:] - lnb[:-2])

    notes = ()
    if lwa_exceeded.any():
        notes = (
            f"cutoff exceeds the long-wavelength bound for "
            f"{np.count_nonzero(lwa_exceeded)} field values starting at "
            f"{b_values[lwa_exceeded].min():.4g} T",
        )
    return SweepResult(
        b_values=b_values,
        omega_c_values=omegas,
        delta_omega=shifts,
        local_exponents=exponents,
        mode=the_mode,
        cutoff_kind=spec.kind,
        notes=notes,
    )


def midpoint_exponent(result: SweepResult) -> float:
    """The local exponent at the grid point nearest the geometric midpoint."""
    return float(result.local_exponents[len(result.b_values) // 2])


def rwa_exponent_analytic(
    config: ExperimentConfig,
    b_field: float,
    cutoff: CutoffKind | str | None = None,
) -> float:
    """Closed-form local exponent of the RWA shift at one field value.

    With ``L = ln|Omega/omega_c - 1|`` the RWA shift magnitude is
    ``(Gamma/2 pi)|L|``, Gamma scales as B^2, and

        d ln|shift| / d ln B = 2 + (dL/d ln B) / L.

    ``dL/d ln B`` depends on how the cutoff rides the field: 0 when the
    cutoff is proportional to B (their ratio is fixed), ``-r/(r-1)`` for a
    field-independent cutoff, ``-r/(2(r-1))`` for a sqrt(B) cutoff, with
    ``r = Omega/omega_c``, read through the sweep's cut-off kernel at
    the field's frequency.
    """
    spec = _sweep_cutoff(config, cutoff)
    w = cyclotron_frequency(config.particle, b_field)
    omega_max, _ = _cutoff_at(config.particle, config.trap, spec, w)
    r = omega_max / w
    big_l = math.log(abs(r - 1.0))
    kind = spec.kind
    if kind is CutoffKind.DE_BROGLIE:
        dl = 0.0
    elif kind is CutoffKind.ZERO_POINT:
        dl = -r / (2.0 * (r - 1.0))
    else:  # cutoffs that do not ride the field
        dl = -r / (r - 1.0)
    return 2.0 + dl / big_l


@dataclass(frozen=True)
class ValidityReport:
    """Everything needed to judge whether the model run can be trusted."""

    omega_c: float
    gamma: float
    delta_minus_ren: float
    t_max: float
    cutoff_kind: CutoffKind
    cutoff_rad_s: float
    lwa_bound_rad_s: float
    lwa_bound_hz: float
    cutoff_within_lwa: bool
    spin_ratio: float
    spin_negligible: bool
    notes: tuple[str, ...]


def validity_report(config: ExperimentConfig) -> ValidityReport:
    """Positivity horizon, long-wavelength check, spin-coupling check."""
    omega_max, note = _cutoff_at(config.particle, config.trap, config.cutoff, config.omega_c)
    notes = [] if note is None else [note]
    rates = _rate_set_at(config, omega_max)
    if config.mode is ApproximationMode.WITH_RWA:
        t_max = math.inf
        notes.append(
            "completely positive dynamics (RWA); no positivity horizon"
        )
    else:
        t_max = validity_window(rates)
        if t_max == math.inf:
            notes.append("zero renormalized shift; positivity never breaks")
    bound = lwa_bound(config.particle, config.omega_c)
    ratio = spin_coupling_ratio(config.particle, config.omega_c, omega_max)
    two_pi = 2.0 * math.pi
    return ValidityReport(
        omega_c=config.omega_c,
        gamma=rates.gamma,
        delta_minus_ren=rates.delta_minus,
        t_max=t_max,
        cutoff_kind=config.cutoff.kind,
        cutoff_rad_s=omega_max,
        lwa_bound_rad_s=bound,
        lwa_bound_hz=bound / two_pi,
        cutoff_within_lwa=bool(omega_max <= bound),
        spin_ratio=ratio,
        spin_negligible=bool(ratio > 100.0),
        notes=tuple(notes),
    )
