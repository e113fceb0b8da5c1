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
from .params import CODATA_2018, ParticleSpec
from .rates import _log_tail, kappa

__all__ = [
    "PerturbationShifts",
    "pt_constants",
    "pt_renormalization_term",
    "pt_frequency_shift_renormalized",
]

#: ``(name, coefficient, power of kappa, n, order)`` per constant pair, in
#: :class:`PerturbationShifts` order: ``coefficient a_q kappa**power / pi``
#: times ``rates._log_tail`` at signs +-1, divergent at ``n`` trap quanta.
_PT_TABLE = (
    ("delta0", 2.0, 1, 1, 1),
    ("delta1", 1.0, 2, 2, 3),
    ("delta2a", 0.125, 3, 3, 5),
    ("delta2b", 0.125, 3, 1, 5),
    ("delta2c", 1.0, 2, 1, 3),
)


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
            names = "/".join(row[0] for row in _PT_TABLE if row[3] == order)
            raise SingularDenominator(
                f"cutoff {omega_max!r} rad/s sits on the {order}-quantum resonance "
                f"({order} * {omega_c!r}); {names} diverge there"
            )


def pt_constants(
    particle: ParticleSpec, omega_c: float, omega_max: float
) -> PerturbationShifts:
    """Evaluate the ten closed-form constants at the given cutoff.

    Each pair is one row of ``_PT_TABLE`` over the shared log-plus-polynomial
    kernel ``rates._log_tail``; the coupling enters through the particle's
    own fine-structure-like ratio ``q^2/(4 pi eps0 hbar c)`` so
    non-electron charges remain meaningful.
    """
    if omega_c <= 0 or omega_max < 0:
        raise SingularDenominator(
            f"need omega_c > 0 and omega_max >= 0, got {omega_c!r}, {omega_max!r}"
        )
    _check_resonances(omega_c, omega_max)
    a_q = CODATA_2018.fine_structure(particle.charge)
    k = kappa(particle, omega_c)
    pairs = []
    for _, coefficient, power, n, order in _PT_TABLE:
        pref = coefficient * a_q * k**power / math.pi
        pairs.append(tuple(
            pref * _log_tail(omega_c, omega_max, sign, n, order) for sign in (1.0, -1.0)
        ))
    return PerturbationShifts(*pairs, kappa=k)


def pt_renormalization_term(
    particle: ParticleSpec, omega_c: float, omega_max: float
) -> float:
    """The linear-in-cutoff piece stripped from the zeroth constants (1/s).

    ``2 a_q kappa Omega / pi`` -- the free-particle contribution in this
    route's bookkeeping.  It equals ``3/2 x (linear free-particle shift) x
    omega_c`` from the rates module: the same factor-of-3 angular
    bookkeeping as the frequency shift, halved by the two-vs-one-transition
    counting.
    """
    a_q = CODATA_2018.fine_structure(particle.charge)
    k = kappa(particle, omega_c)
    return 2.0 * a_q * k * omega_max / math.pi


def pt_frequency_shift_renormalized(
    particle: ParticleSpec, omega_c: float, omega_max: float
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
    shifts = pt_constants(particle, omega_c, omega_max)
    term = pt_renormalization_term(particle, omega_c, omega_max)
    d0p, d0m = shifts.delta0_pm
    d0p_ren = d0p - term
    d0m_ren = d0m + term
    # spacing shift of the linear-in-n part: (n+1) Dm0 - (n+2) Dp0 - [n Dm0 - (n+1) Dp0]
    return d0m_ren - d0p_ren
