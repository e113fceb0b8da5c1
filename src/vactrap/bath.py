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

from .errors import (
    DimensionMismatch,
    FitFailure,
    GuardExceeded,
)
from .liouville import FockSpace, build_fock_operators

__all__ = [
    "DIMENSION_GUARD",
    "BathModel",
    "BathFitResult",
    "make_flat_bath",
    "make_scaling_bath",
    "discrete_golden_rule",
    "discrete_second_order_shift",
    "bath_brute_force",
    "oracle_report_csv",
]

DIMENSION_GUARD = 2**16


@dataclass(frozen=True)
class BathModel:
    """A finite stand-in for the mode continuum.

    ``mode_frequencies`` and ``couplings`` are parallel arrays (couplings
    real, in the same angular-frequency units as the frequencies --
    throughout this module ``hbar = 1`` and frequencies are measured in
    units of the trap frequency unless stated otherwise).
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
    freqs = np.linspace(omega_min, omega_max, n_modes)
    dw = freqs[1] - freqs[0]
    kappa = math.sqrt(gamma_target * dw / (2.0 * math.pi))
    return BathModel(
        mode_frequencies=freqs,
        couplings=np.full(n_modes, kappa),
        omega_c=omega_c,
        **kwargs,
    )


def make_scaling_bath(
    n_modes: int,
    omega_min: float,
    omega_max: float,
    scale: float,
    omega_c: float = 1.0,
    **kwargs,
) -> BathModel:
    """Evenly spaced modes with the physical coupling scaling.

    Squared couplings fall off as ``omega_c / Omega_k`` (the vector-potential
    amplitude of each mode), times a caller-set global scale.
    """
    freqs = np.linspace(omega_min, omega_max, max(n_modes, 1))
    coups = scale * np.sqrt(omega_c / freqs)
    return BathModel(
        mode_frequencies=freqs, couplings=coups, omega_c=omega_c, **kwargs
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

    For the excitation-conserving coupling this is the sum
    ``sum_k kappa_k^2 / (omega_c - Omega_k)`` (level 0 does not move).
    With the full coupling it is evaluated as textbook second-order
    perturbation theory on the truncated product space: the spacing drift
    between the dressed levels adiabatically connected to one and zero
    trap quanta.  A mode exactly on either resonance makes the sum
    meaningless and raises.
    """
    if not bath.counter_rotating:
        dets = bath.omega_c - bath.mode_frequencies
        if np.any(np.abs(dets) <= 1e-12 * bath.omega_c):
            raise FitFailure(
                "a mode sits exactly on resonance; the second-order sum diverges"
            )
        return float(np.sum(bath.couplings**2 / dets))
    h0_diag, v = _dense_hamiltonian(bath)
    shifts = []
    for target in (_product_index(bath, 1), _product_index(bath, 0)):
        e0 = h0_diag[target]
        denom = e0 - h0_diag
        amp2 = np.abs(v[:, target]) ** 2
        mask = np.arange(len(h0_diag)) != target
        if np.any((np.abs(denom) <= 1e-12) & (amp2 > 0) & mask):
            raise FitFailure("degenerate intermediate state in second-order sum")
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(mask & (amp2 > 0), amp2 / denom, 0.0)
        shifts.append(float(np.sum(terms)))
    return shifts[0] - shifts[1]


def _product_index(bath: BathModel, level: int) -> int:
    """Index of |level> x |vac> in the kron-ordered product basis."""
    return level * (bath.photons_per_mode + 1) ** bath.n_modes


def _dense_hamiltonian(bath: BathModel) -> tuple[np.ndarray, np.ndarray]:
    """Full-coupling Hamiltonian on the truncated product space as ``(diag(H0), V)``."""
    n_p = bath.particle_levels
    n_ph = bath.photons_per_mode + 1
    m = bath.n_modes
    dim = n_p * n_ph**m

    b = build_fock_operators(FockSpace(dim=n_p)).b.real
    a1 = build_fock_operators(FockSpace(dim=n_ph)).b.real
    eye_p = np.eye(n_p)
    eye_ph = np.eye(n_ph)

    def embed_mode(op, which):
        full = np.eye(1)
        for j in range(m):
            full = np.kron(full, op if j == which else eye_ph)
        return full

    h0 = bath.omega_c * np.repeat(np.diag(b.T @ b), n_ph**m)
    v = np.zeros((dim, dim), dtype=complex)
    for k in range(m):
        a_k = embed_mode(a1, k)
        h0 += bath.mode_frequencies[k] * np.tile(np.diag(a_k.T @ a_k), n_p)
        v += 1j * bath.couplings[k] * np.kron(b - b.T, a_k + a_k.T)
    return h0, v


def _sector_hamiltonian(bath: BathModel) -> np.ndarray:
    """Zero/one-excitation Hamiltonian for the conserving coupling.

    Basis: e0 = |0> x |vac|, e1 = |1> x |vac>, e_{k+2} = |0> x |1_k>.
    """
    m = bath.n_modes
    h = np.zeros((m + 2, m + 2), dtype=complex)
    h[1, 1] = bath.omega_c
    for k in range(m):
        h[k + 2, k + 2] = bath.mode_frequencies[k]
        h[k + 2, 1] = 1j * bath.couplings[k]
        h[1, k + 2] = -1j * bath.couplings[k]
    return h


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


def _evolve(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Columns: exp(-i H t) psi0 for each t, via one diagonalization."""
    energies, u = np.linalg.eigh(h)
    coeff = u.conj().T @ psi0
    phases = np.exp(-1j * np.outer(energies, times))
    return u @ (phases * coeff[:, None])


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
    fit_start_fraction: float = 0.05,
) -> BathFitResult:
    """Exact evolution against the discrete bath; fit decay and drift.

    Two runs share one diagonalization: ``|1> x |vac>`` for the survival
    probability (decay fit on its logarithm, skipping the initial
    bandwidth transient) and ``(|0> + |1>)/sqrt 2 x |vac>`` for the phase
    drift of ``<b>`` (frequency-shift fit on the unwrapped phase).
    ``rates_expected`` is an optional ``(gamma, shift)`` pair recorded in
    the result for reporting; pass the discrete-sum references.
    """
    if bath.dimension() > DIMENSION_GUARD:
        raise GuardExceeded(
            f"dimension {bath.dimension()} exceeds {DIMENSION_GUARD}"
        )
    times = np.linspace(0.0, duration, n_points)

    if not bath.counter_rotating:
        if bath.particle_levels != 2 or bath.photons_per_mode != 1:
            raise DimensionMismatch(
                "the excitation-conserving path evolves the one-excitation "
                "sector; it needs particle_levels=2, photons_per_mode=1 "
                f"(got {bath.particle_levels}, {bath.photons_per_mode})"
            )
        h = _sector_hamiltonian(bath)
        dim = h.shape[0]
        psi_decay = np.zeros(dim, dtype=complex)
        psi_decay[1] = 1.0
        psi_super = np.zeros(dim, dtype=complex)
        psi_super[0] = psi_super[1] = 1.0 / math.sqrt(2.0)
        traj_decay = _evolve(h, psi_decay, times)
        traj_super = _evolve(h, psi_super, times)
        pop = np.abs(traj_decay[1, :]) ** 2
        # <b> = conj(c0) c1; c0 is conserved at 1/sqrt(2)
        mean_b = traj_super[0, :].conj() * traj_super[1, :]
    else:
        h0_diag, h = _dense_hamiltonian(bath)
        h[np.diag_indices_from(h)] += h0_diag
        dim = h.shape[0]
        i0 = _product_index(bath, 0)
        i1 = _product_index(bath, 1)
        psi_decay = np.zeros(dim, dtype=complex)
        psi_decay[i1] = 1.0
        psi_super = np.zeros(dim, dtype=complex)
        psi_super[i0] = psi_super[i1] = 1.0 / math.sqrt(2.0)
        traj_decay = _evolve(h, psi_decay, times)
        traj_super = _evolve(h, psi_super, times)
        n_field = (bath.photons_per_mode + 1) ** bath.n_modes
        shape = (bath.particle_levels, n_field, len(times))
        pop = np.sum(np.abs(traj_decay.reshape(shape)[1]) ** 2, axis=0)
        # <b> = sum_{n, f} sqrt(n) conj(c[n-1, f]) c[n, f]
        block = traj_super.reshape(shape)
        root_n = np.sqrt(np.arange(1, bath.particle_levels))
        mean_b = np.einsum("nft,n,nft->t", block[:-1].conj(), root_n, block[1:])

    norms = np.sum(np.abs(traj_decay) ** 2, axis=0)
    norm_drift = float(np.max(np.abs(norms - 1.0)))

    fit_mask = times >= fit_start_fraction * duration
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


def oracle_report_csv(
    result: BathFitResult, gamma_tol: float = 0.10, shift_tol: float = 0.05
) -> str:
    """The comparison table: expected, fitted, relative error, pass/fail."""
    lines = ["quantity,expected,fitted,relative_error,pass"]
    for name, expected, fitted, tol in (
        ("gamma", result.gamma_expected, result.gamma_fit, gamma_tol),
        ("shift", result.shift_expected, result.shift_fit, shift_tol),
    ):
        fitted = float(fitted)
        if expected is None:
            lines.append(f"{name},,{fitted!r},,")
            continue
        expected = float(expected)
        rel = abs(fitted - expected) / abs(expected) if expected != 0 else float("inf")
        verdict = "pass" if rel <= tol else "fail"
        lines.append(f"{name},{expected!r},{fitted!r},{rel!r},{verdict}")
    return "\n".join(lines) + "\n"
