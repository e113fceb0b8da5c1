"""Physical constants, particle/trap/cut-off descriptions, configuration.

All quantities are strict SI: masses in kg, charges in C, lengths in m, and
every frequency is an *angular* frequency in rad/s unless a name says
otherwise.  The trap frequency for a particle of charge q in a field B is
``|q| B / m`` (SI convention).  Every formula reads the CODATA 2018 values
in ``CODATA_2018``.

Three physically motivated ultraviolet cut-off rules are supported, plus the
Compton frequency and an explicit user value:

* ``LARGEST_AMPLITUDE`` - wavelengths shorter than the largest device
  dimension ``d_a`` are excluded: ``2 pi c / d_a``.
* ``DE_BROGLIE`` - modes that resolve the particle's thermal de Broglie
  scale on the smallest device dimension ``d_c``: ``c m d_c omega_c / hbar``.
* ``ZERO_POINT`` - modes that resolve the zero-point motion of the trapped
  particle: ``sqrt(2 m c^2 omega_c / hbar)``.  This equals the
  long-wavelength bound exactly, by construction.
* ``COMPTON`` - the relativistic ceiling ``m c^2 / hbar``.
* ``EXPLICIT`` - a user-supplied value.

The three device-motivated rules are capped at the Compton frequency, and a
``LongWavelengthWarning`` is emitted if the resolved value exceeds the
long-wavelength bound.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from scipy import constants as _codata

from .errors import (
    ConfigParseError,
    ConfigurationError,
    LongWavelengthWarning,
    MissingParameter,
)

__all__ = [
    "PhysicalConstants",
    "CODATA_2018",
    "ParticleSpec",
    "ELECTRON",
    "TrapSpec",
    "CutoffKind",
    "CutoffSpec",
    "ApproximationMode",
    "ExperimentConfig",
    "cyclotron_frequency",
    "compton_frequency",
    "cutoff_frequency",
    "lwa_bound",
    "spin_coupling_ratio",
    "reference_config",
    "parse_config_text",
    "load_config",
    "parse_cutoff_kind",
    "parse_mode",
    "REFERENCE_CONFIG_NAME",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of the fundamental constants used throughout (SI).

    Attributes
    ----------
    hbar : float
        Reduced Planck constant, J s.
    c : float
        Speed of light, m/s.
    eps0 : float
        Vacuum permittivity, F/m.
    e : float
        Elementary charge, C.
    m_e : float
        Electron mass, kg.
    alpha_fs : float
        Fine-structure constant (dimensionless).
    """

    hbar: float
    c: float
    eps0: float
    e: float
    m_e: float
    alpha_fs: float

    def fine_structure(self, charge: float) -> float:
        """Charge-generalized coupling ``q^2 / (4 pi eps0 hbar c)``.

        Reduces to ``alpha_fs`` for ``|charge| = e``.
        """
        return charge**2 / (4.0 * math.pi * self.eps0 * self.hbar * self.c)


#: CODATA 2018 values (as shipped by scipy.constants).
CODATA_2018 = PhysicalConstants(
    hbar=_codata.hbar,
    c=_codata.c,
    eps0=_codata.epsilon_0,
    e=_codata.e,
    m_e=_codata.m_e,
    alpha_fs=_codata.alpha,
)


@dataclass(frozen=True)
class ParticleSpec:
    """A charged particle: mass (kg), charge (C, sign kept), g-factor.

    The g-factor is parsed and stored only: the spin-coupling estimate
    assumes g ~ 2, and all the radiative quantities depend on ``charge**2``.
    """

    mass: float
    charge: float
    g_factor: float = 2.0

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ConfigurationError(f"particle mass must be positive, got {self.mass}")
        if self.charge == 0.0 or not math.isfinite(self.charge):
            raise ConfigurationError(f"particle charge must be nonzero, got {self.charge}")


#: The electron (negative charge kept explicit).
ELECTRON = ParticleSpec(mass=CODATA_2018.m_e, charge=-CODATA_2018.e)


@dataclass(frozen=True)
class TrapSpec:
    """Harmonic trap description.

    Exactly one of ``omega_c`` (rad/s) or ``b_field`` (T) must be supplied;
    if both are given they must agree through the particle relation, which
    is checked when the trap is attached to an :class:`ExperimentConfig`.
    ``d_a`` is the largest device dimension, ``d_c`` the smallest trapping
    dimension (both in m); they are optional and only needed by the cut-off
    rules that use them.
    """

    omega_c: float | None = None
    b_field: float | None = None
    d_a: float | None = None
    d_c: float | None = None

    def __post_init__(self):
        if self.omega_c is None and self.b_field is None:
            raise ConfigurationError("trap needs omega_c or b_field")
        for name in ("omega_c", "b_field", "d_a", "d_c"):
            v = getattr(self, name)
            if v is not None and not (v > 0.0 and math.isfinite(v)):
                raise ConfigurationError(f"trap.{name} must be positive, got {v}")
        if self.d_a is not None and self.d_c is not None and not self.d_a > self.d_c:
            raise ConfigurationError(
                f"trap geometry must satisfy d_a > d_c, got d_a={self.d_a}, d_c={self.d_c}"
            )


class CutoffKind(enum.Enum):
    """Ultraviolet cut-off rules (see module docstring)."""

    LARGEST_AMPLITUDE = "largest-amplitude"
    DE_BROGLIE = "de-broglie"
    ZERO_POINT = "zero-point"
    COMPTON = "compton"
    EXPLICIT = "explicit"


#: Kinds whose value is derived from the long-wavelength modelling of the
#: device (and therefore capped at the Compton frequency / checked against
#: the long-wavelength bound).
_LWA_KINDS = frozenset(
    {CutoffKind.LARGEST_AMPLITUDE, CutoffKind.DE_BROGLIE, CutoffKind.ZERO_POINT}
)

_CUTOFF_ALIASES = {
    "largest-amplitude": CutoffKind.LARGEST_AMPLITUDE,
    "omega1": CutoffKind.LARGEST_AMPLITUDE,
    "de-broglie": CutoffKind.DE_BROGLIE,
    "omega2": CutoffKind.DE_BROGLIE,
    "zero-point": CutoffKind.ZERO_POINT,
    "omega3": CutoffKind.ZERO_POINT,
    "compton": CutoffKind.COMPTON,
    "explicit": CutoffKind.EXPLICIT,
}


def parse_cutoff_kind(text: str) -> CutoffKind:
    """Map a user-facing cut-off name (``omega1`` ... ``explicit``) to its kind."""
    try:
        return _CUTOFF_ALIASES[text.strip().lower()]
    except KeyError:
        raise ConfigParseError(
            f"unknown cutoff kind {text!r}; expected one of {sorted(_CUTOFF_ALIASES)}"
        ) from None


@dataclass(frozen=True)
class CutoffSpec:
    """A cut-off rule plus the explicit value when ``kind == EXPLICIT``."""

    kind: CutoffKind
    value: float | None = None

    def __post_init__(self):
        if self.kind is CutoffKind.EXPLICIT:
            if self.value is None or not (self.value > 0.0 and math.isfinite(self.value)):
                raise ConfigurationError(
                    f"explicit cutoff needs a positive value, got {self.value}"
                )
        elif self.value is not None:
            raise ConfigurationError(f"cutoff kind {self.kind.value} takes no value")


class ApproximationMode(enum.Enum):
    """Which master-equation treatment is in effect."""

    WITH_RWA = "with-rwa"
    BEYOND_RWA = "beyond-rwa"


def parse_mode(text: str) -> ApproximationMode:
    try:
        return ApproximationMode(text.strip().lower())
    except ValueError:
        raise ConfigParseError(
            f"unknown mode {text!r}; expected 'with-rwa' or 'beyond-rwa'"
        ) from None


def cyclotron_frequency(particle: ParticleSpec, b_field: float) -> float:
    """Trap (cyclotron) angular frequency ``|q| B / m`` in rad/s.

    Parameters
    ----------
    particle : ParticleSpec
    b_field : float
        Magnetic field in tesla, must be positive.
    """
    if not (b_field > 0.0 and math.isfinite(b_field)):
        raise ConfigurationError(f"b_field must be positive, got {b_field}")
    return abs(particle.charge) * b_field / particle.mass


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete immutable description of one computation.

    Resolution of the trap frequency happens here: ``omega_c`` uses the
    explicit trap value when present, otherwise derives it from ``b_field``;
    if both were supplied they must agree to 1e-9 relative.
    """

    particle: ParticleSpec
    trap: TrapSpec
    cutoff: CutoffSpec
    mode: ApproximationMode

    def __post_init__(self):
        if self.trap.omega_c is not None and self.trap.b_field is not None:
            derived = cyclotron_frequency(self.particle, self.trap.b_field)
            if abs(derived - self.trap.omega_c) > 1e-9 * self.trap.omega_c:
                raise ConfigurationError(
                    "trap.omega_c and trap.b_field disagree: "
                    f"{self.trap.omega_c} vs derived {derived}"
                )

    @property
    def omega_c(self) -> float:
        if self.trap.omega_c is not None:
            return self.trap.omega_c
        return cyclotron_frequency(self.particle, self.trap.b_field)

    @property
    def b_field(self) -> float:
        """Field implied by the trap frequency (or the stored field)."""
        if self.trap.b_field is not None:
            return self.trap.b_field
        return self.trap.omega_c * self.particle.mass / abs(self.particle.charge)


def lwa_bound(particle: ParticleSpec, omega_c: float) -> float:
    """Long-wavelength bound ``sqrt(2 m c^2 omega_c / hbar)`` in rad/s.

    Field modes above this frequency vary appreciably across the particle's
    zero-point spread, so the dipole (long-wavelength) coupling used
    throughout stops being trustworthy there.
    """
    if not (omega_c > 0.0 and math.isfinite(omega_c)):
        raise ConfigurationError(f"omega_c must be positive, got {omega_c}")
    k = CODATA_2018
    return math.sqrt(2.0 * particle.mass * k.c**2 * omega_c / k.hbar)


def compton_frequency(particle: ParticleSpec) -> float:
    """Relativistic ceiling ``m c^2 / hbar`` in rad/s."""
    return particle.mass * CODATA_2018.c**2 / CODATA_2018.hbar


def cutoff_frequency(config: ExperimentConfig) -> float:
    """Resolve the configured cut-off rule to an angular frequency.

    Raises
    ------
    MissingParameter
        If the rule needs a device dimension the trap does not carry.

    Warns
    -----
    LongWavelengthWarning
        If the resolved value exceeds ``lwa_bound`` (strictly).
    """
    k = CODATA_2018
    kind = config.cutoff.kind
    w = config.omega_c
    if kind is CutoffKind.LARGEST_AMPLITUDE:
        if config.trap.d_a is None:
            raise MissingParameter("largest-amplitude cutoff needs trap.d_a")
        value = 2.0 * math.pi * k.c / config.trap.d_a
    elif kind is CutoffKind.DE_BROGLIE:
        if config.trap.d_c is None:
            raise MissingParameter("de-broglie cutoff needs trap.d_c")
        value = k.c * config.particle.mass * config.trap.d_c * w / k.hbar
    elif kind is CutoffKind.ZERO_POINT:
        value = lwa_bound(config.particle, w)
    elif kind is CutoffKind.COMPTON:
        value = compton_frequency(config.particle)
    else:  # EXPLICIT
        value = float(config.cutoff.value)

    if kind in _LWA_KINDS:
        ceiling = compton_frequency(config.particle)
        if value > ceiling:
            value = ceiling
        bound = lwa_bound(config.particle, w)
        if value > bound:
            warnings.warn(
                f"cutoff {value:.3e} rad/s exceeds the long-wavelength bound "
                f"{bound:.3e} rad/s; dipole coupling is strained",
                LongWavelengthWarning,
                stacklevel=2,
            )
    return value


def spin_coupling_ratio(
    particle: ParticleSpec, omega_c: float, mode_frequency: float
) -> float:
    """Order-of-magnitude ratio of charge coupling to spin coupling.

    For a spin-1/2 particle with g ~ 2 the per-mode charge (dipole) coupling
    exceeds the magnetic-moment coupling by roughly
    ``c^2 sqrt(m omega_c / hbar) / mode_frequency``; spin effects are
    negligible while this is much larger than one.  O(1) polarization
    factors are intentionally dropped.
    """
    if not (mode_frequency > 0.0 and math.isfinite(mode_frequency)):
        raise ConfigurationError(f"mode_frequency must be positive, got {mode_frequency}")
    k = CODATA_2018
    num = k.c**2 * math.sqrt(particle.mass * omega_c / k.hbar)
    return num / mode_frequency


# --------------------------------------------------------------------------
# Named reference configuration and flat key=value config files
# --------------------------------------------------------------------------

REFERENCE_CONFIG_NAME = "sec-reference"

#: Single-electron trap reference point: omega_c = 9.42e11 rad/s with device
#: dimensions d_a = 5 um and d_c = 15 nm.
_REFERENCE_TRAP = TrapSpec(omega_c=9.42e11, d_a=5.0e-6, d_c=15.0e-9)


def reference_config(
    mode: ApproximationMode = ApproximationMode.BEYOND_RWA,
    cutoff: CutoffKind | CutoffSpec = CutoffKind.ZERO_POINT,
) -> ExperimentConfig:
    """The built-in single-electron reference configuration.

    Defaults to the zero-point cut-off and the beyond-RWA treatment; both
    can be overridden per call.
    """
    if isinstance(cutoff, CutoffKind):
        cutoff = CutoffSpec(kind=cutoff)
    return ExperimentConfig(
        particle=ELECTRON, trap=_REFERENCE_TRAP, cutoff=cutoff, mode=mode
    )


_KNOWN_KEYS = {
    "particle.mass_kg",
    "particle.charge_C",
    "particle.g_factor",
    "trap.omega_c_rad_s",
    "trap.b_field_T",
    "trap.d_a_m",
    "trap.d_c_m",
    "cutoff.kind",
    "cutoff.value_rad_s",
    "mode",
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` config into an :class:`ExperimentConfig`.

    Blank lines and ``#`` comments are ignored.  Unknown keys are an error
    (misspellings should not silently fall back to defaults).  Particle
    fields default to the electron; ``cutoff.kind`` defaults to
    ``zero-point`` and ``mode`` to ``beyond-rwa``.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val

    def fnum(key: str, default: float | None = None) -> float | None:
        if key not in values:
            return default
        try:
            return float(values[key])
        except ValueError:
            raise ConfigParseError(f"key {key}: not a number: {values[key]!r}") from None

    particle = ParticleSpec(
        mass=fnum("particle.mass_kg", ELECTRON.mass),
        charge=fnum("particle.charge_C", ELECTRON.charge),
        g_factor=fnum("particle.g_factor", 2.0),
    )
    trap = TrapSpec(
        omega_c=fnum("trap.omega_c_rad_s"),
        b_field=fnum("trap.b_field_T"),
        d_a=fnum("trap.d_a_m"),
        d_c=fnum("trap.d_c_m"),
    )
    kind = parse_cutoff_kind(values.get("cutoff.kind", "zero-point"))
    if kind is CutoffKind.EXPLICIT:
        cutoff = CutoffSpec(kind=kind, value=fnum("cutoff.value_rad_s"))
    elif "cutoff.value_rad_s" in values:
        raise ConfigParseError("cutoff.value_rad_s only applies to cutoff.kind = explicit")
    else:
        cutoff = CutoffSpec(kind=kind)
    mode = parse_mode(values.get("mode", "beyond-rwa"))
    return ExperimentConfig(particle=particle, trap=trap, cutoff=cutoff, mode=mode)


def load_config(source: str | Path) -> ExperimentConfig:
    """Load a config file, or return the named built-in configuration.

    ``load_config("sec-reference")`` yields :func:`reference_config`.
    """
    if str(source) == REFERENCE_CONFIG_NAME:
        return reference_config()
    path = Path(source)
    if not path.exists():
        raise ConfigParseError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
