"""Closed-form radiative rates and level shifts for the trapped particle.

Everything here is analytic; no dynamics.  With ``G`` the radiative damping
rate, ``w`` the trap frequency and ``W`` the ultraviolet cut-off (all
angular, rad/s):

* damping rate          ``G = q^2 w^2 / (3 pi eps0 m c^3)``
* raw level shifts      ``D+- = G/(2 pi w) * (+-W - w ln|(w +- W)/w|)``
* renormalized shifts   ``D+-^R = -(G/2 pi) ln|(w +- W)/w|``
* trap-frequency shift  beyond-RWA ``dw = D-^R - D+^R``; with the RWA only
  the single-quantum shift survives, ``dw = D-^R``.

The raw shifts grow linearly with the cut-off; that linear piece is exactly
the free-particle (mass-renormalization) term ``dE_lin * w / 2`` and is
removed by the renormalized forms.  ``free_particle_shift`` exposes the two
dimensionless free-particle quantities and their exact factor-2 relation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, SingularCutoff
from .params import (
    CODATA_2018,
    ApproximationMode,
    ExperimentConfig,
    ParticleSpec,
    cutoff_frequency,
)

__all__ = [
    "RateSet",
    "FreeParticleShift",
    "kappa",
    "damping_rate",
    "level_shifts_raw",
    "level_shifts_renormalized",
    "frequency_shift",
    "relative_shift",
    "free_particle_shift",
    "build_rate_set",
]


def kappa(particle: ParticleSpec, omega_c: float) -> float:
    """Trap-quantum to rest-energy ratio ``hbar w / (m c^2)`` (dimensionless)."""
    _require_positive_frequency(omega_c)
    return CODATA_2018.hbar * omega_c / (particle.mass * CODATA_2018.c**2)


def damping_rate(particle: ParticleSpec, omega_c: float) -> float:
    """Radiative energy damping rate ``q^2 w^2 / (3 pi eps0 m c^3)`` in 1/s.

    Equals ``(4/3) alpha_q kappa w`` with ``alpha_q`` the charge-generalized
    fine-structure constant; the identity is exercised in the tests.
    """
    _require_positive_frequency(omega_c)
    k = CODATA_2018
    return particle.charge**2 * omega_c**2 / (3.0 * math.pi * k.eps0 * particle.mass * k.c**3)


def _require_positive_frequency(value: float, name: str = "omega_c") -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be a positive finite frequency, got {value}")


def _guard_cutoff(omega_c: float, omega_max: float) -> None:
    _require_positive_frequency(omega_c)
    _require_positive_frequency(omega_max, "omega_max")
    if abs(omega_max - omega_c) <= 1e-12 * omega_c:
        raise SingularCutoff(
            f"cutoff {omega_max} coincides with the trap frequency {omega_c}; "
            "the level-shift integrals diverge logarithmically there"
        )


def _log_ratio(w: float, W: float, sign: float, n: int) -> float:
    """``ln|(n w + sign W) / (n w)|``, the logarithm of every shift integral."""
    return math.log(abs((n * w + sign * W) / (n * w)))


def _log_tail(w: float, W: float, sign: float, n: int, order: int) -> float:
    """``-(n**order w) [ln|1 + y| - sum_{j <= order} (-1)**(j+1) y**j / j]``, ``y = sign W/(n w)``.

    The one form of every closed-form shift integral, evaluated as the log
    term plus ``(-1)**(j+1) n**(order-j) (sign W)**j / (j w**(j-1))`` for
    ``j = 1 .. order`` in turn.  The raw level shifts are ``n = order = 1``;
    :func:`vactrap.perturbation.pt_constants` tabulates the rest.
    """
    total = -(n**order * w) * _log_ratio(w, W, sign, n)
    for j in range(1, order + 1):
        total += (-1) ** (j + 1) * n ** (order - j) * (sign * W) ** j / (j * w ** (j - 1))
    return total


def level_shifts_raw(gamma: float, omega_c: float, omega_max: float) -> tuple[float, float]:
    """Unrenormalized shift pair ``(D+, D-)`` in 1/s.

    ``D+- = G/(2 pi w) * (+-W - w ln|(w +- W)/w|)``.  Both contain the
    cut-off-linear free-particle piece.
    """
    _guard_cutoff(omega_c, omega_max)
    pref = gamma / (2.0 * math.pi * omega_c)
    return tuple(pref * _log_tail(omega_c, omega_max, s, 1, 1) for s in (1.0, -1.0))


def level_shifts_renormalized(
    gamma: float, omega_c: float, omega_max: float
) -> tuple[float, float]:
    """Mass-renormalized shift pair ``(D+^R, D-^R)`` in 1/s.

    ``D+-^R = -(G / 2 pi) ln|(w +- W)/w|``; the cut-off-linear term of the
    raw shifts has been absorbed into the particle mass.
    """
    _guard_cutoff(omega_c, omega_max)
    pref = -gamma / (2.0 * math.pi)
    return tuple(pref * _log_ratio(omega_c, omega_max, s, 1) for s in (1.0, -1.0))


def frequency_shift(
    gamma: float, omega_c: float, omega_max: float, mode: ApproximationMode
) -> float:
    """Vacuum shift of the trap frequency in 1/s, by treatment.

    Beyond the RWA both the single-quantum and the counter-rotating
    two-quantum channels contribute and the result is ``D-^R - D+^R``
    (positive for ``W > 2 w``).  Under the RWA only the single-quantum
    channel survives: ``D-^R`` (negative for large cut-offs).
    """
    return _trap_shift(*level_shifts_renormalized(gamma, omega_c, omega_max), mode)


def _trap_shift(d_plus: float, d_minus: float, mode: ApproximationMode) -> float:
    """The trap-frequency shift ``mode`` keeps of a renormalized pair."""
    if mode is ApproximationMode.BEYOND_RWA:
        return d_minus - d_plus
    return d_minus


def relative_shift(config: ExperimentConfig) -> float:
    """Dimensionless relative trap-frequency shift ``dw / w`` (exact branch)."""
    rates = build_rate_set(config)
    return rates.delta_omega / rates.omega_c


@dataclass(frozen=True)
class FreeParticleShift:
    """Dimensionless free-particle energy corrections.

    ``delta_e_fp`` is the relative second-order energy correction of a free
    charge coupled to the vacuum up to the cut-off; ``delta_e_lin`` is the
    cut-off-linear coefficient that appears in the trapped-particle raw
    shifts.  Exactly ``delta_e_fp = 2 * delta_e_lin``.
    """

    delta_e_fp: float
    delta_e_lin: float


def free_particle_shift(particle: ParticleSpec, omega_max: float) -> FreeParticleShift:
    """Free-particle relative energy shift pair for a cut-off ``W``."""
    _require_positive_frequency(omega_max, "omega_max")
    k = CODATA_2018
    lin = particle.charge**2 * omega_max / (3.0 * math.pi**2 * k.eps0 * particle.mass * k.c**3)
    return FreeParticleShift(delta_e_fp=2.0 * lin, delta_e_lin=lin)


@dataclass(frozen=True)
class RateSet:
    """All rates a generator needs, in 1/s, plus bookkeeping.

    ``delta_plus``/``delta_minus`` (the values the master-equation builders
    consume) are the renormalized pair.  ``delta_omega`` is the trap-
    frequency shift implied by ``mode``.  ``omega_max`` is NaN for
    synthetic (scaled-unit) rate sets that were not derived from a cut-off.
    """

    gamma: float
    delta_plus_raw: float
    delta_minus_raw: float
    delta_plus_ren: float
    delta_minus_ren: float
    omega_c: float
    omega_max: float
    mode: ApproximationMode

    @property
    def delta_plus(self) -> float:
        return self.delta_plus_ren

    @property
    def delta_minus(self) -> float:
        return self.delta_minus_ren

    @property
    def delta_omega(self) -> float:
        return _trap_shift(self.delta_plus_ren, self.delta_minus_ren, self.mode)

    @classmethod
    def scaled(
        cls,
        gamma: float,
        delta_plus: float,
        delta_minus: float,
        mode: ApproximationMode = ApproximationMode.BEYOND_RWA,
        omega_c: float = 1.0,
    ) -> "RateSet":
        """Build a synthetic rate set in scaled units (``w = 1`` natural).

        Intended for dynamics studies where ``gamma``, ``delta_plus`` and
        ``delta_minus`` are chosen directly (raw and renormalized values
        coincide; no cut-off is involved).
        """
        if not all(map(math.isfinite, (gamma, delta_plus, delta_minus))):
            raise ConfigurationError(
                f"scaled rates must be finite, got gamma={gamma}, "
                f"delta_plus={delta_plus}, delta_minus={delta_minus}"
            )
        return cls(
            gamma=gamma,
            delta_plus_raw=delta_plus,
            delta_minus_raw=delta_minus,
            delta_plus_ren=delta_plus,
            delta_minus_ren=delta_minus,
            omega_c=omega_c,
            omega_max=math.nan,
            mode=mode,
        )


def build_rate_set(config: ExperimentConfig) -> RateSet:
    """Evaluate every rate for a configuration (SI units)."""
    return _rate_set_at(config, cutoff_frequency(config))


def _rate_set_at(config: ExperimentConfig, W: float) -> RateSet:
    """:func:`build_rate_set` with the cut-off ``W`` already resolved."""
    w = config.omega_c
    g = damping_rate(config.particle, w)
    dp_raw, dm_raw = level_shifts_raw(g, w, W)
    dp_ren, dm_ren = level_shifts_renormalized(g, w, W)
    return RateSet(
        gamma=g,
        delta_plus_raw=dp_raw,
        delta_minus_raw=dm_raw,
        delta_plus_ren=dp_ren,
        delta_minus_ren=dm_ren,
        omega_c=w,
        omega_max=W,
        mode=config.mode,
    )
