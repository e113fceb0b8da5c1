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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._csv import csv_text
from .errors import DimensionMismatch, UnboundedWindow
from .evolve import validity_window
from .params import (
    ApproximationMode,
    CutoffKind,
    CutoffSpec,
    ExperimentConfig,
    TrapSpec,
    cutoff_frequency,
    cyclotron_frequency,
    lwa_bound,
    parse_cutoff_kind,
    parse_mode,
    spin_coupling_ratio,
)
from .rates import _rate_set_at, relative_shift

__all__ = [
    "SweepResult",
    "Table1Report",
    "ValidityReport",
    "table1",
    "table1_csv",
    "bfield_sweep",
    "sweep_csv",
    "midpoint_exponent",
    "rwa_exponent_analytic",
    "validity_report",
]

_GRID_KINDS = (CutoffKind.LARGEST_AMPLITUDE, CutoffKind.DE_BROGLIE, CutoffKind.ZERO_POINT)


def _at_field(
    config: ExperimentConfig,
    b_field: float,
    cutoff: CutoffKind | str | None,
    mode: ApproximationMode,
) -> ExperimentConfig:
    """``config`` at another field, with the sweep's cutoff kind and mode.

    The trap frequency follows ``b_field`` while the geometry (d_a, d_c)
    stays fixed.  ``cutoff`` is a kind, its name, or None for the config's
    own; the explicit value is kept only for the explicit kind.
    """
    kind = parse_cutoff_kind(cutoff) if isinstance(cutoff, str) else (cutoff or config.cutoff.kind)
    value = config.cutoff.value if kind is CutoffKind.EXPLICIT else None
    w = cyclotron_frequency(config.particle, b_field)
    return replace(
        config,
        trap=TrapSpec(omega_c=w, d_a=config.trap.d_a, d_c=config.trap.d_c),
        cutoff=CutoffSpec(kind=kind, value=value),
        mode=mode,
    )


def _recording_warnings(call, *args) -> tuple[object, list[str]]:
    """``call(*args)`` and the messages of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call(*args)
    return value, [str(c.message) for c in caught]


@dataclass(frozen=True)
class Table1Report:
    """Relative frequency shifts on the 3 x 2 (cutoff x mode) grid."""

    cutoff_labels: tuple[str, str, str]
    with_rwa: tuple[float, float, float]
    beyond_rwa: tuple[float, float, float]
    omega_c: float
    b_field: float


def table1(config: ExperimentConfig) -> Table1Report:
    """The six relative shifts at the configuration's trap parameters.

    The cutoff choice in ``config`` is ignored: the grid runs over all
    three physical cutoffs by construction.
    """
    rows = {}
    for kind in _GRID_KINDS:
        for mode in (ApproximationMode.WITH_RWA, ApproximationMode.BEYOND_RWA):
            variant = replace(config, cutoff=CutoffSpec(kind=kind), mode=mode)
            rows[(kind, mode)] = relative_shift(variant)
    return Table1Report(
        cutoff_labels=("omega1", "omega2", "omega3"),
        with_rwa=tuple(rows[(k, ApproximationMode.WITH_RWA)] for k in _GRID_KINDS),
        beyond_rwa=tuple(rows[(k, ApproximationMode.BEYOND_RWA)] for k in _GRID_KINDS),
        omega_c=config.omega_c,
        b_field=config.b_field,
    )


def table1_csv(report: Table1Report) -> str:
    """Deterministic CSV of the grid (pure function of the config)."""
    return csv_text(
        ("cutoff", "with_rwa", "beyond_rwa"),
        zip(report.cutoff_labels, report.with_rwa, report.beyond_rwa),
    )


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
    frequency at each point follows from the field.  Local exponents
    ``d ln|shift| / d ln B`` are central differences, NaN at the ends.
    """
    b_lo, b_hi = b_range
    if not (0 < b_lo < b_hi):
        raise DimensionMismatch(f"need 0 < b_min < b_max, got {b_range!r}")
    if n_points < 16:
        raise DimensionMismatch(f"need >= 16 points for stable slopes, got {n_points}")
    the_mode = parse_mode(mode) if isinstance(mode, str) else (mode or config.mode)

    b_values = np.geomspace(b_lo, b_hi, n_points)
    omegas = np.empty(n_points)
    shifts = np.empty(n_points)
    lwa_exceeded: list[float] = []
    for i, b in enumerate(b_values):
        variant = _at_field(config, b, cutoff, the_mode)
        omegas[i] = variant.omega_c
        relative, caught = _recording_warnings(relative_shift, variant)
        shifts[i] = relative * omegas[i]
        if caught:
            lwa_exceeded.append(b)

    lnb = np.log(b_values)
    lny = np.log(np.abs(shifts))
    exponents = np.full(n_points, np.nan)
    exponents[1:-1] = (lny[2:] - lny[:-2]) / (lnb[2:] - lnb[:-2])

    notes = ()
    if lwa_exceeded:
        notes = (
            f"cutoff exceeds the long-wavelength bound for "
            f"{len(lwa_exceeded)} field values starting at {min(lwa_exceeded):.3f} T",
        )
    return SweepResult(
        b_values=b_values,
        omega_c_values=omegas,
        delta_omega=shifts,
        local_exponents=exponents,
        mode=the_mode,
        cutoff_kind=variant.cutoff.kind,
        notes=notes,
    )


def sweep_csv(result: SweepResult) -> str:
    return csv_text(
        ("b_tesla", "omega_c_rad_s", "delta_omega_rad_s", "local_exponent"),
        zip(result.b_values, result.omega_c_values, result.delta_omega, result.local_exponents),
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
    ``r = Omega/omega_c``.
    """
    variant = _at_field(config, b_field, cutoff, ApproximationMode.WITH_RWA)
    omega_max, _ = _recording_warnings(cutoff_frequency, variant)
    r = omega_max / variant.omega_c
    big_l = math.log(abs(r - 1.0))
    kind = variant.cutoff.kind
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

    def as_text(self) -> str:
        lines = [
            f"trap frequency          {self.omega_c!r} rad/s",
            f"damping rate            {self.gamma!r} 1/s",
            f"positivity horizon      {self.t_max!r} s",
            f"{f'cutoff ({self.cutoff_kind.value})':<24}{self.cutoff_rad_s!r} rad/s",
            f"long-wavelength bound   {self.lwa_bound_rad_s!r} rad/s"
            f" ({self.lwa_bound_hz:.3e} Hz)",
            f"cutoff within bound     {self.cutoff_within_lwa}",
            f"spin-coupling ratio     {self.spin_ratio:.3e}",
            f"spin coupling negligible: {str(self.spin_negligible).lower()}",
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return csv_text(("quantity", "value"), [
            ("omega_c_rad_s", self.omega_c),
            ("gamma_per_s", self.gamma),
            ("delta_minus_ren_per_s", self.delta_minus_ren),
            ("t_max_s", self.t_max),
            ("cutoff_kind", self.cutoff_kind.value),
            ("cutoff_rad_s", self.cutoff_rad_s),
            ("lwa_bound_rad_s", self.lwa_bound_rad_s),
            ("lwa_bound_hz", self.lwa_bound_hz),
            ("cutoff_within_lwa", str(self.cutoff_within_lwa).lower()),
            ("spin_ratio", self.spin_ratio),
            ("spin_negligible", str(self.spin_negligible).lower()),
        ])


def validity_report(config: ExperimentConfig) -> ValidityReport:
    """Positivity horizon, long-wavelength check, spin-coupling check."""
    omega_max, notes = _recording_warnings(cutoff_frequency, config)
    rates = _rate_set_at(config, omega_max)
    if config.mode is ApproximationMode.WITH_RWA:
        t_max = math.inf
        notes.append(
            "completely positive dynamics (RWA); no positivity horizon"
        )
    else:
        try:
            t_max = validity_window(rates).t_max
        except UnboundedWindow:
            t_max = math.inf
            notes.append("zero renormalized shift; positivity never breaks")
    bound = lwa_bound(config.particle, config.omega_c)
    ratio = spin_coupling_ratio(config.particle, config.omega_c, omega_max)
    two_pi = 2.0 * math.pi
    return ValidityReport(
        omega_c=config.omega_c,
        gamma=rates.gamma,
        delta_minus_ren=rates.delta_minus_ren,
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
