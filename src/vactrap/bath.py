"""Brute-force oracle: exact unitary evolution against a discretized bath.

The master-equation results are second order in the coupling.  To check
them without trusting any second-order derivation, this module evolves the
particle plus a finite set of field modes exactly (dense diagonalization)
and fits the decay rate and frequency drift from the wavefunction.  The
references it is compared against are the *discrete-sum* golden rule and
second-order sums over the same mode set -- never the continuum formulas --
so discretization error cannot masquerade as physics error.

Two interaction forms are supported:

* excitation-conserving coupling (``counter_rotating=False``): evolution
  from the standard initial states stays in the span of no-excitation and
  single-excitation states, so the effective dimension is ``M + 2`` for M
  modes and huge mode counts are exact and cheap;
* full coupling ``i kappa (b - b+)(a + a+)`` (``counter_rotating=True``):
  dense product-space evolution with per-mode photon truncation, guarded
  by a hard dimension cap.

Both share one representation, built by ``_hamiltonian`` (the only place
they differ); the second-order sum, the evolution with one
diagonalization per run, and the observables are one path.

Decay is fitted from ``ln P_1(t)`` (survival of one trap quantum) and the
frequency from the unwrapped phase of ``<b>(t)`` along a superposition
initial state ``(|0> + |1>)/sqrt(2) x |vac>``.  A vacuum-Rabi situation
(single resonant mode) produces oscillation instead of decay; the line fit
detects this through its residual and reports a fit failure rather than a
rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csv import csv_text
from .errors import (
    ConfigurationError,
    DimensionMismatch,
    FitFailure,
    GuardExceeded,
)
from .liouville import FockSpace, build_fock_operators

__all__ = [
    "BathModel",
    "BathFitResult",
    "make_flat_bath",
    "discrete_golden_rule",
    "discrete_second_order_shift",
    "bath_brute_force",
    "oracle_report_csv",
]

DIMENSION_GUARD = 2**16

# share of the run skipped before fitting: the initial bandwidth transient
_FIT_START_FRACTION = 0.05

# relative errors up to which oracle_report_csv marks a fit "pass"
_GAMMA_TOL = 0.10
_SHIFT_TOL = 0.05


@dataclass(frozen=True)
class BathModel:
    """A finite stand-in for the mode continuum.

    ``mode_frequencies`` and ``couplings`` are parallel arrays (couplings
    real, in the same angular-frequency units as the frequencies --
    throughout this module ``hbar = 1`` and frequencies are measured in
    units of the trap frequency unless stated otherwise).  The
    excitation-conserving coupling (``counter_rotating=False``) is modelled
    in its one-excitation sector, so it takes only ``particle_levels=2``
    and ``photons_per_mode=1``.
    """

    mode_frequencies: np.ndarray
    couplings: np.ndarray
    particle_levels: int = 2
    photons_per_mode: int = 1
    counter_rotating: bool = False
    omega_c: float = 1.0

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.mode_frequencies, dtype=float))
        coups = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "mode_frequencies", freqs)
        object.__setattr__(self, "couplings", coups)
        if freqs.ndim != 1 or len(freqs) < 1:
            raise DimensionMismatch("need at least one bath mode")
        if coups.shape != freqs.shape:
            raise DimensionMismatch(
                f"{len(coups)} couplings for {len(freqs)} modes"
            )
        if self.particle_levels < 2:
            raise DimensionMismatch(
                f"particle needs >= 2 levels, got {self.particle_levels}"
            )
        if self.photons_per_mode < 1:
            raise DimensionMismatch(
                f"photons_per_mode must be >= 1, got {self.photons_per_mode}"
            )
        if not self.counter_rotating and (
            self.particle_levels != 2 or self.photons_per_mode != 1
        ):
            raise DimensionMismatch(
                "the excitation-conserving coupling evolves the one-excitation "
                "sector; it needs particle_levels=2, photons_per_mode=1 "
                f"(got {self.particle_levels}, {self.photons_per_mode})"
            )
        if self.dimension() > DIMENSION_GUARD:
            raise GuardExceeded(
                f"effective dimension {self.dimension()} exceeds the "
                f"{DIMENSION_GUARD} guard"
            )

    @property
    def n_modes(self) -> int:
        return len(self.mode_frequencies)

    def dimension(self) -> int:
        """Dimension of the space the evolution actually explores.

        Excitation-conserving coupling from the standard initial states
        never leaves the zero/one-excitation sector: M + 2 basis states.
        The full coupling needs the whole truncated product space.
        """
        if not self.counter_rotating:
            return self.n_modes + 2
        return self.particle_levels * (self.photons_per_mode + 1) ** self.n_modes


def make_flat_bath(
    n_modes: int,
    omega_min: float,
    omega_max: float,
    gamma_target: float,
    omega_c: float = 1.0,
    **kwargs,
) -> BathModel:
    """Evenly spaced modes with equal couplings sized for a target rate.

    The golden rule for a flat discretization gives
    ``Gamma = 2 pi kappa^2 / dw``, so ``kappa = sqrt(Gamma dw / 2 pi)``.
    """
    if n_modes < 2:
        raise DimensionMismatch("flat bath needs >= 2 modes to define a spacing")
    if not 0.0 < omega_min < omega_max < math.inf:
        raise DimensionMismatch(
            f"flat bath needs 0 < omega_min < omega_max < inf, got {omega_min} and {omega_max}"
        )
    if not (gamma_target > 0.0 and math.isfinite(gamma_target)):
        raise DimensionMismatch(
            f"gamma_target must be a positive finite rate, got {gamma_target}"
        )
    freqs = np.linspace(omega_min, omega_max, n_modes)
    dw = freqs[1] - freqs[0]
    kappa = math.sqrt(gamma_target * dw / (2.0 * math.pi))
    return BathModel(
        mode_frequencies=freqs,
        couplings=np.full(n_modes, kappa),
        omega_c=omega_c,
        **kwargs,
    )


def discrete_golden_rule(bath: BathModel) -> float:
    """Golden-rule decay rate from the discrete mode set itself.

    ``2 pi kappa_k*^2 / dw_local`` with ``k*`` the mode nearest resonance
    and the local spacing taken from its neighbours.  Requires >= 2 modes.
    """
    freqs = bath.mode_frequencies
    if len(freqs) < 2:
        raise FitFailure("golden rule needs a mode density: >= 2 modes")
    k = int(np.argmin(np.abs(freqs - bath.omega_c)))
    lo = max(k - 1, 0)
    hi = min(k + 1, len(freqs) - 1)
    spacing = (freqs[hi] - freqs[lo]) / (hi - lo)
    if spacing <= 0:
        raise FitFailure("mode frequencies must be strictly increasing near resonance")
    return 2.0 * math.pi * bath.couplings[k] ** 2 / spacing


def discrete_second_order_shift(bath: BathModel) -> float:
    """Second-order level-spacing shift from the same discrete mode set.

    Textbook second-order perturbation theory in the basis the oracle
    evolves in: the drift of ``|1> x |vac>`` minus that of ``|0> x |vac>``,
    each ``sum_j |V_j,target|^2 / (E_target - E_j)``.  For the
    excitation-conserving coupling this is
    ``sum_k kappa_k^2 / (omega_c - Omega_k)`` (level 0 does not move); with
    the full coupling it is the spacing drift between the dressed levels
    adiabatically connected to one and zero trap quanta.  A coupled state
    exactly on resonance makes the sum meaningless and raises.
    """
    h0, v, _, lower = _hamiltonian(bath)
    shifts = []
    for target in (int(np.flatnonzero(lower == 0)[0]), 0):
        amp2 = np.abs(v[:, target]) ** 2
        keep = amp2 > 0
        denom = h0[target] - h0[keep]
        if np.any(np.abs(denom) <= 1e-12 * bath.omega_c):
            raise FitFailure(
                "a mode sits exactly on resonance; the second-order sum diverges"
            )
        shifts.append(float(np.sum(amp2[keep] / denom)))
    return shifts[0] - shifts[1]


def _hamiltonian(bath: BathModel) -> tuple[np.ndarray, ...]:
    """The bath Hamiltonian as ``(diag(H0), V, level, lower)``.

    ``level[j]`` is the trap level of basis state ``j`` and ``lower[j]`` the
    state one trap quantum down with the same field (negative at level 0).
    State 0 is ``|0> x |vac>``.  The conserving coupling uses the sector
    basis e0 = |0> x |vac>, e1 = |1> x |vac>, e_{k+2} = |0> x |1_k>; the
    full coupling ``i kappa (b - b+)(a + a+)`` the kron-ordered truncated
    product space.
    """
    m = bath.n_modes
    if not bath.counter_rotating:
        h0 = np.concatenate(([0.0, bath.omega_c], bath.mode_frequencies))
        v = np.zeros((m + 2, m + 2), dtype=complex)
        v[2:, 1] = 1j * bath.couplings
        v[1, 2:] = -1j * bath.couplings
        level = np.zeros(m + 2, dtype=int)
        level[1] = 1
        return h0, v, level, level - 1

    n_p = bath.particle_levels
    n_ph = bath.photons_per_mode + 1
    n_field = n_ph**m
    dim = n_p * n_field

    b = build_fock_operators(FockSpace(dim=n_p)).b.real
    # photons[x, k]: mode k's photon count in field state x, the base-n_ph
    # digits of x with mode 0 leading (kron order)
    strides = n_ph ** np.arange(m - 1, -1, -1)
    photons = np.arange(n_field)[:, None] // strides % n_ph
    level = np.repeat(np.arange(n_p), n_field)
    # integer levels keep the trap energies exact; diag(b+ b) squares sqrt(n)
    h0 = float(bath.omega_c) * level
    quadrature = np.zeros((n_field, n_field))  # sum_k kappa_k (a_k + a_k^+)
    for k in range(m):
        h0 += bath.mode_frequencies[k] * np.tile(photons[:, k], n_p)
        room = np.flatnonzero(photons[:, k] < bath.photons_per_mode)
        amp = bath.couplings[k] * np.sqrt(photons[room, k] + 1.0)
        quadrature[room, room + strides[k]] = quadrature[room + strides[k], room] = amp
    v = 1j * np.kron(b - b.T, quadrature)
    return h0, v, level, np.arange(dim) - n_field


@dataclass(frozen=True)
class BathFitResult:
    """Fitted decay/shift with the trajectory they were fitted from."""

    gamma_fit: float
    shift_fit: float
    gamma_expected: float | None
    shift_expected: float | None
    norm_drift: float
    times: np.ndarray = field(repr=False)
    excited_population: np.ndarray = field(repr=False)
    mean_lowering: np.ndarray = field(repr=False)


def _fit_decay(times: np.ndarray, pop: np.ndarray) -> float:
    usable = pop > 1e-12
    if np.count_nonzero(usable) < 8:
        raise FitFailure("survival probability collapsed; nothing to fit")
    t, y = times[usable], np.log(pop[usable])
    if np.ptp(y) < 1e-3:
        return 0.0  # no resolvable decay; an honest zero, not a failure
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < 0.99 or slope >= 0:
        raise FitFailure(
            f"survival is not a clean exponential (R^2 = {r2:.4f}, "
            f"slope = {slope:.3e}); oscillatory (Rabi-like) dynamics?"
        )
    return -float(slope)


def _fit_phase_drift(times: np.ndarray, mean_b: np.ndarray, omega_c: float) -> float:
    mag = np.abs(mean_b)
    usable = mag > 1e-12 * (mag.max() if mag.max() > 0 else 1.0)
    if np.count_nonzero(usable) < 8:
        raise FitFailure("<b> vanished; no phase to fit")
    phase = np.unwrap(np.angle(mean_b[usable]))
    slope = np.polyfit(times[usable], phase, 1)[0]
    return -float(slope) - omega_c


def bath_brute_force(
    bath: BathModel,
    rates_expected: tuple[float | None, float | None] | None = None,
    duration: float = 80.0,
    n_points: int = 2001,
) -> BathFitResult:
    """Exact evolution against the discrete bath; fit decay and drift.

    Both couplings take one path through the :func:`_hamiltonian` basis.
    Two runs share one diagonalization: ``|1> x |vac>`` for the survival
    probability ``P_1`` (decay fit on its logarithm, skipping the initial
    bandwidth transient) and ``(|0> + |1>)/sqrt 2 x |vac>`` for the phase
    drift of ``<b> = sum_j sqrt(level_j) conj(c[lower_j]) c[j]``
    (frequency-shift fit on the unwrapped phase).  ``rates_expected`` is an
    optional ``(gamma, shift)`` pair recorded in the result for reporting;
    pass the discrete-sum references.  ``duration`` must be positive and
    finite, and ``n_points`` at least 2.
    """
    if not 0.0 < duration < math.inf:
        raise ConfigurationError(f"duration must be positive and finite, got {duration}")
    if n_points < 2:
        raise ConfigurationError(f"n_points must be at least 2, got {n_points}")
    times = np.linspace(0.0, duration, n_points)
    h0, h, level, lower = _hamiltonian(bath)
    h[np.diag_indices_from(h)] += h0
    energies, u = np.linalg.eigh(h)
    del h
    phases = np.exp(-1j * np.outer(energies, times))
    i1 = int(np.flatnonzero(lower == 0)[0])

    def evolve(occupied: list[int]) -> np.ndarray:
        psi = np.zeros(len(level), dtype=complex)
        psi[occupied] = 1.0 / math.sqrt(len(occupied))
        return u @ (phases * (u.conj().T @ psi)[:, None])

    traj_decay = evolve([i1])
    traj_super = evolve([0, i1])
    pop = np.sum(np.abs(traj_decay[level == 1]) ** 2, axis=0)
    up = lower >= 0
    mean_b = np.einsum(
        "jt,j,jt->t",
        traj_super[lower[up]].conj(),
        np.sqrt(level[up]),
        traj_super[up],
    )

    norms = np.sum(np.abs(traj_decay) ** 2, axis=0)
    norm_drift = float(np.max(np.abs(norms - 1.0)))

    fit_mask = times >= _FIT_START_FRACTION * duration
    gamma_fit = _fit_decay(times[fit_mask], pop[fit_mask])
    shift_fit = _fit_phase_drift(times[fit_mask], mean_b[fit_mask], bath.omega_c)

    gamma_expected = shift_expected = None
    if rates_expected is not None:
        gamma_expected, shift_expected = rates_expected
    return BathFitResult(
        gamma_fit=gamma_fit,
        shift_fit=shift_fit,
        gamma_expected=gamma_expected,
        shift_expected=shift_expected,
        norm_drift=norm_drift,
        times=times,
        excited_population=pop,
        mean_lowering=mean_b,
    )


def oracle_report_csv(result: BathFitResult) -> str:
    """The comparison table: expected, fitted, relative error, pass/fail.

    A fit passes within 10 % (gamma) or 5 % (shift) of its expected value.
    """
    rows = []
    for name, expected, fitted, tol in (
        ("gamma", result.gamma_expected, result.gamma_fit, _GAMMA_TOL),
        ("shift", result.shift_expected, result.shift_fit, _SHIFT_TOL),
    ):
        if expected is None:
            rows.append((name, "", fitted, "", ""))
            continue
        rel = abs(fitted - expected) / abs(expected) if expected != 0 else math.inf
        rows.append((name, expected, fitted, rel, "pass" if rel <= tol else "fail"))
    return csv_text(("quantity", "expected", "fitted", "relative_error", "pass"), rows)
