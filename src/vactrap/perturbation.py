"""Time-independent perturbation-theory cross-check of the frequency shift.

Second-order level shifts of the trapped particle coupled to the mode
continuum, evaluated with the dipole phase factor expanded to second order
in ``k.r`` rather than dropped.  This gives an independent route to the
trap-frequency shift: after subtracting the linear-in-cutoff free-particle
piece, the level-spacing shift from the long-wavelength constants is a
constant multiple of the master-equation shift (the multiple is 3 -- the
route drops an angular cos^2 factor whose solid-angle average is 1/3).
That ratio is pinned numerically by the tests; a drift in it would flag a
transcription error in either route.

All ten constants carry a log singularity when the cutoff hits one of the
intermediate-state resonances (one, two, or three trap quanta), so those
points are rejected up front.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularDenominator
from .params import (
    CODATA_2018,
    ExperimentConfig,
    ParticleSpec,
    PhysicalConstants,
    cutoff_frequency,
)
from .rates import kappa

__all__ = [
    "PerturbationShifts",
    "pt_constants",
    "pt_constants_for",
    "pt_energy_shift",
    "pt_renormalization_term",
    "pt_frequency_shift_renormalized",
]

# resonance order -> which constants blow up there (for error messages)
_SINGULAR_ORDERS = {1: "delta0/delta2b/delta2c", 2: "delta1", 3: "delta2a"}


@dataclass(frozen=True)
class PerturbationShifts:
    """The five (plus, minus) constant pairs of the second-order expansion.

    Each pair is ``(plus, minus)`` in 1/s; ``kappa`` is the dimensionless
    recoil ratio ``hbar omega_c / (m c^2)`` the expansion is organized in.
    """

    delta0_pm: tuple[float, float]
    delta1_pm: tuple[float, float]
    delta2a_pm: tuple[float, float]
    delta2b_pm: tuple[float, float]
    delta2c_pm: tuple[float, float]
    kappa: float


def _check_resonances(omega_c: float, omega_max: float) -> None:
    for order in (1, 2, 3):
        if abs(order * omega_c - omega_max) <= 1e-12 * order * omega_c:
            raise SingularDenominator(
                f"cutoff {omega_max!r} rad/s sits on the {order}-quantum resonance "
                f"({order} * {omega_c!r}); {_SINGULAR_ORDERS[order]} diverge there"
            )


def pt_constants(
    particle: ParticleSpec,
    omega_c: float,
    omega_max: float,
    constants: PhysicalConstants = CODATA_2018,
) -> PerturbationShifts:
    """Evaluate the ten closed-form constants at the given cutoff.

    Exact transcription of the log-plus-polynomial forms; the coupling
    enters through the particle's own fine-structure-like ratio
    ``q^2/(4 pi eps0 hbar c)`` so non-electron charges remain meaningful.
    """
    if omega_c <= 0 or omega_max < 0:
        raise SingularDenominator(
            f"need omega_c > 0 and omega_max >= 0, got {omega_c!r}, {omega_max!r}"
        )
    _check_resonances(omega_c, omega_max)
    a_q = constants.fine_structure(particle.charge)
    k = kappa(particle, omega_c, constants)
    w, W = omega_c, omega_max

    def d0(sign: float) -> float:
        return (2.0 * a_q * k / math.pi) * (
            -w * math.log(abs((w + sign * W) / w)) + sign * W
        )

    def d1(sign: float) -> float:
        return (a_q * k**2 / math.pi) * (
            -8.0 * w * math.log(abs((2.0 * w + sign * W) / (2.0 * w)))
            + sign * 4.0 * W
            - W**2 / w
            + sign * W**3 / (3.0 * w**2)
        )

    def d2a(sign: float) -> float:
        return (a_q * k**3 / (8.0 * math.pi)) * (
            -243.0 * w * math.log(abs((3.0 * w + sign * W) / (3.0 * w)))
            + sign * 81.0 * W
            - 27.0 * W**2 / (2.0 * w)
            + sign * 3.0 * W**3 / w**2
            - 3.0 * W**4 / (4.0 * w**3)
            + sign * W**5 / (5.0 * w**4)
        )

    def d2b(sign: float) -> float:
        return (a_q * k**3 / (8.0 * math.pi)) * (
            -w * math.log(abs((w + sign * W) / w))
            + sign * W
            - W**2 / (2.0 * w)
            + sign * W**3 / (3.0 * w**2)
            - W**4 / (4.0 * w**3)
            + sign * W**5 / (5.0 * w**4)
        )

    def d2c(sign: float) -> float:
        return (a_q * k**2 / math.pi) * (
            -w * math.log(abs((w + sign * W) / w))
            + sign * W
            - W**2 / (2.0 * w)
            + sign * W**3 / (3.0 * w**2)
        )

    return PerturbationShifts(
        delta0_pm=(d0(+1.0), d0(-1.0)),
        delta1_pm=(d1(+1.0), d1(-1.0)),
        delta2a_pm=(d2a(+1.0), d2a(-1.0)),
        delta2b_pm=(d2b(+1.0), d2b(-1.0)),
        delta2c_pm=(d2c(+1.0), d2c(-1.0)),
        kappa=k,
    )


def pt_constants_for(config: ExperimentConfig) -> PerturbationShifts:
    """Constants at a configuration's own frequency and cutoff."""
    return pt_constants(
        config.particle, config.omega_c, cutoff_frequency(config), config.constants
    )


def pt_energy_shift(n: int, shifts: PerturbationShifts) -> float:
    """Level-``n`` energy shift over hbar (1/s): the polynomial combination.

    ``n Dm0 - (n+1) Dp0 + n(n-1) Dm1 - (n+1)(n+2) Dp1
      + n(n-1)(n-2) Dm2a - (n+1)(n+2)(n+3) Dp2a
      + n^3 Dm2b - (n^3 + 3n^2 + 3n - 1) Dp2b
      + n^2 Dm2c - (n+1)^2 Dp2c``

    Note the ground level picks up ``+Dp2b`` (coefficient -(0+0+0-1)).
    """
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    d0p, d0m = shifts.delta0_pm
    d1p, d1m = shifts.delta1_pm
    d2ap, d2am = shifts.delta2a_pm
    d2bp, d2bm = shifts.delta2b_pm
    d2cp, d2cm = shifts.delta2c_pm
    return (
        n * d0m
        - (n + 1) * d0p
        + n * (n - 1) * d1m
        - (n + 1) * (n + 2) * d1p
        + n * (n - 1) * (n - 2) * d2am
        - (n + 1) * (n + 2) * (n + 3) * d2ap
        + n**3 * d2bm
        - (n**3 + 3 * n**2 + 3 * n - 1) * d2bp
        + n**2 * d2cm
        - (n + 1) ** 2 * d2cp
    )


def pt_renormalization_term(
    particle: ParticleSpec,
    omega_c: float,
    omega_max: float,
    constants: PhysicalConstants = CODATA_2018,
) -> float:
    """The linear-in-cutoff piece stripped from the zeroth constants (1/s).

    ``2 a_q kappa Omega / pi`` -- the free-particle contribution in this
    route's bookkeeping.  It equals ``3/2 x (linear free-particle shift) x
    omega_c`` from the rates module: the same factor-of-3 angular
    bookkeeping as the frequency shift, halved by the two-vs-one-transition
    counting.
    """
    a_q = constants.fine_structure(particle.charge)
    k = kappa(particle, omega_c, constants)
    return 2.0 * a_q * k * omega_max / math.pi


def pt_frequency_shift_renormalized(
    particle: ParticleSpec,
    omega_c: float,
    omega_max: float,
    constants: PhysicalConstants = CODATA_2018,
) -> float:
    """Level-spacing shift (1/s) from the long-wavelength constants alone,
    with the linear-in-cutoff free-particle piece subtracted.

    Computed literally as renormalize-then-difference rather than from the
    collapsed closed form, so the code path mirrors the definition.  The
    result is positive for ``omega_max > omega_c`` and is exactly three
    times the master-equation frequency shift.
    """
    if omega_max <= omega_c:
        raise SingularDenominator(
            f"renormalized spacing needs omega_max > omega_c "
            f"(got {omega_max!r} <= {omega_c!r})"
        )
    shifts = pt_constants(particle, omega_c, omega_max, constants)
    term = pt_renormalization_term(particle, omega_c, omega_max, constants)
    d0p, d0m = shifts.delta0_pm
    d0p_ren = d0p - term
    d0m_ren = d0m + term
    # spacing shift of the linear-in-n part: (n+1) Dm0 - (n+2) Dp0 - [n Dm0 - (n+1) Dp0]
    return d0m_ren - d0p_ren
