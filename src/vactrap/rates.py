"""Closed-form radiative rates and level shifts for the trapped particle.

Everything here is analytic; no dynamics.  With ``G`` the radiative damping
rate, ``w`` the trap frequency and ``W`` the ultraviolet cut-off (all
angular, rad/s):

* damping rate          ``G = q^2 w^2 / (3 pi eps0 m c^3)``
* raw level shifts      ``D+- = G/(2 pi w) * (+-W - w ln|(w +- W)/w|)``
* renormalized shifts   ``D+-^R = -(G/2 pi) ln|(w +- W)/w|``
* trap-frequency shift  beyond-RWA ``dw = D-^R - D+^R``; with the RWA only
  the single-quantum shift survives, ``dw = D-^R``.
* positivity horizon    ``T_max = (G + sqrt(G^2 + 4 D^2)) / (4 D^2)`` with
  ``D = D-^R``, the positive root of ``4 D^2 t^2 - 2 G t - 1 = 0``; the
  beyond-RWA state map stays positive on Gaussian inputs strictly below it.

The raw shifts grow linearly with the cut-off; that linear piece is exactly
the free-particle (mass-renormalization) term ``dE_lin * w / 2`` and is
removed by the renormalized forms.  A ``RateSet`` keeps the renormalized
pair; the raw pair is ``level_shifts_raw``'s, evaluated at the set's own
``gamma``, ``omega_c`` and ``omega_max``.  ``free_particle_shift`` exposes
the two dimensionless free-particle quantities and their exact factor-2
relation.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConfigurationError, SingularCutoff, _require_positive
from .params import (
    CODATA_2022,
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
    "validity_window",
    "gaussian_positivity_check",
]


def kappa(particle: ParticleSpec, omega_c: float) -> float:
    """Trap-quantum to rest-energy ratio ``hbar w / (m c^2)`` (dimensionless)."""
    _require_positive(omega_c, "omega_c")
    return CODATA_2022.hbar * omega_c / (particle.mass * CODATA_2022.c**2)


def damping_rate(particle: ParticleSpec, omega_c: float) -> float:
    """Radiative energy damping rate ``q^2 w^2 / (3 pi eps0 m c^3)`` in 1/s.

    Equals ``(4/3) alpha_q kappa w`` with ``alpha_q`` the charge-generalized
    fine-structure constant; the identity is exercised in the tests.  A
    rate past the float range (inf, or 0) is a ``ConfigurationError``, and
    so is a subnormal one, below ``sys.float_info.min``: its shifts would
    keep few digits.
    """
    _require_positive(omega_c, "omega_c")
    k = CODATA_2022
    denominator = 3.0 * math.pi * k.eps0 * particle.mass * k.c**3
    try:  # as a Python float, an overflow raises or gives inf instead of warning
        rate = particle.charge**2 * float(omega_c) ** 2 / denominator
    except (OverflowError, ZeroDivisionError):
        rate = math.inf
    _require_positive(
        rate, lambda: f"damping rate at omega_c = {omega_c}", minimum=sys.float_info.min
    )
    return rate


def _guard_cutoff(omega_c: float, omega_max: float) -> None:
    _require_positive(omega_c, "omega_c")
    _require_positive(omega_max, "omega_max")
    if abs(omega_max - omega_c) <= 1e-12 * omega_c:
        raise SingularCutoff(
            f"cutoff {omega_max} coincides with the trap frequency {omega_c}; "
            "the level-shift integrals diverge logarithmically there"
        )


def _log_ratio(w: float, W: float, sign: float, n: int) -> float:
    """``ln|(n w + sign W) / (n w)|``, the logarithm of every shift integral."""
    ratio = abs((n * w + sign * W) / (n * w))
    _require_positive(ratio, lambda: f"the shift logarithm's argument at w = {w!r}, W = {W!r}")
    return math.log(ratio)


def _log_tail(w: float, W: float, sign: float, n: int, order: int) -> float:
    """``-(n**order w) [ln|1 + y| - sum_{j <= order} (-1)**(j+1) y**j / j]``, ``y = sign W/(n w)``.

    The one form of every closed-form shift integral, evaluated as the log
    term plus ``(-1)**(j+1) n**(order-j) (sign W)**j / (j w**(j-1))`` for
    ``j = 1 .. order`` in turn.  The raw level shifts are ``n = order = 1``;
    :func:`vactrap.perturbation.pt_constants` tabulates the rest.  A power
    ``W**j`` past the float range, or ``w**(j-1)`` rounding to 0, is a ``ConfigurationError``.
    """
    total = -(n**order * w) * _log_ratio(w, W, sign, n)
    try:  # as a Python float, a power past the float range raises
        for j in range(1, order + 1):
            total += (-1) ** (j + 1) * n ** (order - j) * (sign * W) ** j / (j * w ** (j - 1))
    except OverflowError:
        raise ConfigurationError(
            f"cutoff {W!r} rad/s overflows the order-{order} shift integral"
        ) from None
    except ZeroDivisionError:
        raise ConfigurationError(
            f"trap frequency {w!r} rad/s underflows the order-{order} shift integral"
        ) from None
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
    _require_positive(omega_max, "omega_max")
    k = CODATA_2022
    lin = particle.charge**2 * omega_max / (3.0 * math.pi**2 * k.eps0 * particle.mass * k.c**3)
    return FreeParticleShift(delta_e_fp=2.0 * lin, delta_e_lin=lin)


@dataclass(frozen=True)
class RateSet:
    """All rates a generator needs, in 1/s, plus bookkeeping.

    ``delta_plus``/``delta_minus`` (the values the master-equation builders
    consume) are the renormalized pair; the raw pair is
    ``level_shifts_raw(gamma, omega_c, omega_max)``.  ``delta_omega`` is the
    trap-frequency shift implied by ``mode``.  ``omega_c`` is the trap
    frequency the rates are measured against: rad/s for an SI set, exactly 1
    for a trap-unit set from :meth:`scaled`.  ``omega_max`` is NaN for those
    synthetic sets, which were not derived from a cut-off.
    """

    gamma: float
    delta_plus: float
    delta_minus: float
    omega_c: float
    omega_max: float
    mode: ApproximationMode

    @property
    def delta_omega(self) -> float:
        return _trap_shift(self.delta_plus, self.delta_minus, self.mode)

    @classmethod
    def scaled(cls, gamma: float, delta_plus: float, delta_minus: float) -> "RateSet":
        """Build a synthetic beyond-RWA rate set in trap units (``omega_c = 1``).

        Intended for dynamics studies where ``gamma``, ``delta_plus`` and
        ``delta_minus`` are chosen directly (no cut-off is involved).  These
        are the only rate sets the generators accept.
        """
        if not all(map(math.isfinite, (gamma, delta_plus, delta_minus))):
            raise ConfigurationError(
                f"scaled rates must be finite, got gamma={gamma}, "
                f"delta_plus={delta_plus}, delta_minus={delta_minus}"
            )
        return cls(
            gamma=gamma,
            delta_plus=delta_plus,
            delta_minus=delta_minus,
            omega_c=1.0,
            omega_max=math.nan,
            mode=ApproximationMode.BEYOND_RWA,
        )


def build_rate_set(config: ExperimentConfig) -> RateSet:
    """Evaluate every rate for a configuration (SI units)."""
    return _rate_set_at(config, cutoff_frequency(config))


def _rate_set_at(config: ExperimentConfig, W: float) -> RateSet:
    """:func:`build_rate_set` with the cut-off ``W`` already resolved."""
    w = config.omega_c
    g = damping_rate(config.particle, w)
    dp, dm = level_shifts_renormalized(g, w, W)
    return RateSet(
        gamma=g,
        delta_plus=dp,
        delta_minus=dm,
        omega_c=w,
        omega_max=W,
        mode=config.mode,
    )


def validity_window(rates: RateSet) -> float:
    """Gaussian-positivity horizon ``T_max`` in the rate set's time unit
    (uses the renormalized shift).

    A vanishing renormalized single-quantum shift gives ``math.inf``, the
    formula's limit as ``D -> 0``; at ``G = 0`` the limit ``1/(2 |D|)`` is
    returned.  When ``4 D^2`` underflows the same root is evaluated as
    ``(r + hypot(r, 2)) / (4 |D|)`` with ``r = G/|D|``.
    """
    d, g = rates.delta_minus, rates.gamma
    if d == 0.0:
        return math.inf
    four_d2 = 4.0 * d * d
    if four_d2 == 0.0:
        r = g / abs(d)
        return (r + math.hypot(r, 2.0)) / (4.0 * abs(d))
    return (g + math.sqrt(g * g + four_d2)) / four_d2


def gaussian_positivity_check(rates: RateSet, t: float) -> bool:
    """Whether the Gaussian state map is positivity-preserving at time ``t``.

    Evaluates ``G - 2 D^2 t > -1/(2 t)`` (equivalently ``t < T_max``); with
    ``D = 0`` the condition holds for every ``t``.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    d = rates.delta_minus
    return rates.gamma - 2.0 * d * d * t > -1.0 / (2.0 * t)
