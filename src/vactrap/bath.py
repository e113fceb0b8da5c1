"""Brute-force oracle: exact unitary evolution against a discretized bath.

The master-equation results are second order in the coupling.  To check
them without trusting any second-order derivation, this module evolves the
particle plus a finite set of field modes exactly (dense diagonalization
of each invariant block) and fits the decay rate and frequency drift from
the wavefunction.  The references it is compared against are the
*discrete-sum* golden rule and second-order sums over the same mode set --
never the continuum formulas -- so discretization error cannot masquerade
as physics error.

Two interaction forms are supported:

* excitation-conserving coupling (``counter_rotating=False``): evolution
  from the standard initial states stays in the span of no-excitation and
  single-excitation states, so the effective dimension is ``M + 2`` for M
  modes and huge mode counts are exact and cheap;
* full coupling ``i kappa (b - b+)(a + a+)`` (``counter_rotating=True``):
  dense product-space evolution with per-mode photon truncation.  The
  coupling changes the trap level plus the total photon count by 0 or
  +-2, so the product space splits into two parity sectors, each
  diagonalized and propagated on its own.

Both share one representation, built by ``_hamiltonian`` (the only place
they differ) as the Hamiltonian's invariant blocks, each built directly and
never cut from a whole-space matrix; the evolution with one
diagonalization per block shared by both runs, and the observables, are
one path.  The second-order sum needs only the two coupling columns of
``|1> x |vac>`` and ``|0> x |vac>``, which it reads from the coupling's
factors, so the evolution is the only reader of the blocks.  The
superposition start's ground part lies in one parity sector, so in the
other its columns are the decay run's over ``sqrt 2`` and the
eigenvectors there multiply once per chunk.  The evolution walks the time
grid in chunks of columns, so a run holds its dense blocks and
eigenvectors but never a states-by-times array; a model whose run would
need more than physical memory is refused when it is made.
Both bases are written in the gauge ``psi_j -> i**level_j psi_j``, in
which the full coupling reads ``-kappa (b + b+)(a + a+)``, and the
conserving one its excitation-conserving part: a real symmetric float64
matrix, half the bytes of the complex one and cheaper to diagonalize, so
both couplings run in one real arithmetic.  The gauge leaves populations
and norms alone, and since ``b`` lowers the level by one, ``<b>`` is
``1j`` times the same sum over the gauged amplitudes: one phase step,
exact in floating point.
The time grid is uniform, so each block's phase table ``exp(-i E t)`` is
computed once per run, for the first chunk of columns, and every later
chunk's is that table times one rotation ``exp(-i E t0)``, ``t0`` the
chunk's first time: each phase stays within a few ulp of the direct
exponential, and no error accumulates across chunks.

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

from .errors import ConfigurationError, DimensionMismatch, FitFailure
from .errors import _refuse_past_memory, _require_count, _require_positive

__all__ = [
    "BathModel",
    "BathFitResult",
    "make_flat_bath",
    "discrete_golden_rule",
    "discrete_second_order_shift",
    "bath_brute_force",
]

# share of the run skipped before fitting: the initial bandwidth transient
_FIT_START_FRACTION = 0.05

# time columns per chunk of the evolution.  On the 8-mode product space
# (dim 512, 801 points) tracemalloc peaks at 2.3 MB at width 32 (building
# the blocks), 3.3 MB at 64 and 5.0 MB at 128, against 7.8 MB at 256,
# 14.4 MB at 512 and 27.5 MB for the whole grid at once; run times at these
# widths agree within the spread of the measurement
_CHUNK = 128

# the phase <b> takes in the gauge psi_j -> i**level_j psi_j: b lowers the
# level by one, so <b> is this times the same sum over the gauged amplitudes
_STEP = 1j


@dataclass(frozen=True)
class BathModel:
    """A finite stand-in for the mode continuum.

    ``mode_frequencies`` and ``couplings`` are parallel finite arrays
    (couplings real, in the same angular-frequency units as the frequencies --
    throughout this module ``hbar = 1`` and frequencies are measured in
    units of the trap frequency, so the trap sits at 1).  The
    excitation-conserving coupling (``counter_rotating=False``) is modelled
    in its one-excitation sector, so it takes only ``particle_levels=2``
    and ``photons_per_mode=1``.
    """

    mode_frequencies: np.ndarray
    couplings: np.ndarray
    particle_levels: int = 2
    photons_per_mode: int = 1
    counter_rotating: bool = False

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.mode_frequencies, dtype=float))
        coups = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "mode_frequencies", freqs)
        object.__setattr__(self, "couplings", coups)
        if freqs.ndim != 1 or len(freqs) < 1:
            raise DimensionMismatch("need at least one bath mode")
        _require_count(self.particle_levels, "particle_levels", minimum=2)
        _require_count(self.photons_per_mode, "photons_per_mode", minimum=1)
        if coups.shape != freqs.shape:
            raise DimensionMismatch(
                f"{len(coups)} couplings for {len(freqs)} modes"
            )
        if not (np.isfinite(freqs).all() and np.isfinite(coups).all()):
            raise DimensionMismatch("mode frequencies and couplings must be finite")
        if not self.counter_rotating and (
            self.particle_levels != 2 or self.photons_per_mode != 1
        ):
            raise DimensionMismatch(
                "the excitation-conserving coupling evolves the one-excitation "
                "sector; it needs particle_levels=2, photons_per_mode=1 "
                f"(got {self.particle_levels}, {self.photons_per_mode})"
            )
        # the oracle's peak in bytes, refused before anything is allocated:
        # q * dim**2 for the dense blocks, with q = 16 in the product space
        # (two float64 sectors of dim**2 / 4 entries, each with its
        # eigenvectors, eigh's copy and workspace) and 40 in the sector (the
        # float64 block, eigh's copy, eigenvectors and LAPACK's workspace of
        # 2 dim**2 doubles), plus 128 * _CHUNK * dim for the walk (the phase
        # tables, three work buffers, the superposition state and the
        # chunk's temporaries: about eight complex dim x _CHUNK arrays).
        # ru_maxrss of a fresh process running both references and the
        # oracle, less its size before, over this bound: 0.67 and 0.64 in
        # the product space (2048 and 4096 states, 801 points), 0.76, 0.78
        # and 0.87 in the sector (502, 1002 and 2002 states, 2001 points);
        # the tracemalloc peak, which omits LAPACK's workspace, over it:
        # 0.37-0.52 in the product space (256 to 4096 states) and 0.45-0.90
        # in the sector (66 to 2002 states)
        dim = self.dimension()
        peak = ((16 if self.counter_rotating else 40) * dim + 128 * _CHUNK) * dim
        _refuse_past_memory(peak, f"a bath oracle on {dim} states", "run")

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
    **kwargs,
) -> BathModel:
    """Evenly spaced modes with equal couplings sized for a target rate.

    The golden rule for a flat discretization gives
    ``Gamma = 2 pi kappa^2 / dw``, so ``kappa = sqrt(Gamma dw / 2 pi)``.
    """
    _require_count(n_modes, "n_modes", minimum=2)  # two modes define a spacing
    if not 0.0 < omega_min < omega_max < math.inf:
        raise DimensionMismatch(
            f"flat bath needs 0 < omega_min < omega_max < inf, got {omega_min} and {omega_max}"
        )
    _require_positive(gamma_target, "gamma_target", DimensionMismatch)
    freqs = np.linspace(omega_min, omega_max, n_modes)
    dw = float(freqs[1] - freqs[0])  # a Python float overflows to inf silently
    kappa = math.sqrt(gamma_target * dw / (2.0 * math.pi))
    return BathModel(
        mode_frequencies=freqs,
        couplings=np.full(n_modes, kappa),
        **kwargs,
    )


def discrete_golden_rule(bath: BathModel) -> float:
    """Golden-rule decay rate from the discrete mode set itself.

    ``2 pi kappa_k*^2 / dw_local`` with ``k*`` the mode nearest resonance
    and the local spacing taken from its neighbours.  Requires >= 2 modes.
    """
    freqs = bath.mode_frequencies
    _require_count(len(freqs), "n_modes", FitFailure, minimum=2)  # for a mode density
    k = int(np.argmin(np.abs(freqs - 1.0)))
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
    ``sum_k kappa_k^2 / (1 - Omega_k)`` (level 0 does not move); with
    the full coupling it is the spacing drift between the dressed levels
    adiabatically connected to one and zero trap quanta.  A coupled state
    exactly on resonance makes the sum meaningless and raises.

    Both columns of :func:`_hamiltonian`'s ``V`` are read from its factors,
    with no block built: the quadrature takes the field vacuum to one
    photon in mode ``k`` with weight ``kappa_k``, and the trap factor takes
    the target's level ``t`` to level ``l`` (``-(b + b+)``; ``-b`` in the
    sector, where the vacuum's ``a+`` pairs with ``b`` alone).  The coupled
    state ``l x 1_k`` has energy ``l + Omega_k``.  Each sum runs over the
    coupled states in ascending basis order, as the blocks hold them:
    levels first, then the field, whose one-photon states run from the
    last mode to the first in the product space's kron order.
    """
    b = np.diag(np.sqrt(np.arange(1.0, bath.particle_levels)), 1)  # the trap's ladder
    trap = -(b + b.T) if bath.counter_rotating else -b
    modes = np.arange(bath.n_modes)
    if bath.counter_rotating:
        modes = modes[::-1]
    kappa, omega = bath.couplings[modes], bath.mode_frequencies[modes]
    shifts = []
    for target in (1, 0):
        levels = np.flatnonzero(trap[:, target])
        amp2 = np.abs(np.multiply.outer(trap[levels, target], kappa).ravel()) ** 2
        keep = amp2 > 0
        denom = float(target) - np.add.outer(levels.astype(float), omega).ravel()[keep]
        if np.any(np.abs(denom) <= 1e-12):
            raise FitFailure(
                "a mode sits exactly on resonance; the second-order sum diverges"
            )
        shifts.append(float(np.sum(amp2[keep] / denom)))
    return shifts[0] - shifts[1]


def _hamiltonian(bath: BathModel) -> tuple:
    """The bath Hamiltonian as ``(diag(H0), level, lower, blocks)``.

    ``level[j]`` is the trap level of basis state ``j`` and ``lower[j]`` the
    state one trap quantum down with the same field (negative at level 0).
    State 0 is ``|0> x |vac>``.  ``blocks`` lists ``(idx, V_block)`` pairs:
    ``idx`` the ascending basis states of a block that ``H0 + V`` never
    connects across, ``V_block`` the coupling among them, a fresh array
    its consumer may overwrite.  The sector is one block of all its states;
    the product space splits by ``(level + total photons) mod 2``, which
    the coupling changes by 0 or +-2, and each parity sector is built
    directly, so no whole-space ``V`` is formed.  ``V`` acts on the
    amplitudes of the module's gauge, in which it is float64 for both
    couplings.  The conserving coupling uses the sector basis e0 = |0> x |vac>,
    e1 = |1> x |vac>, e_{k+2} = |0> x |1_k>, where ``V`` is ``-kappa_k`` on
    row and column 1.  The full coupling ``i kappa (b - b+)(a + a+)`` uses
    the kron-ordered truncated product space, with
    ``V = -kappa (b + b+)(a + a+)``; each block holds the entries of
    ``-kron(b + b+, quadrature)``, the same products and signed zeros.
    """
    m = bath.n_modes
    if not bath.counter_rotating:
        h0 = np.concatenate(([0.0, 1.0], bath.mode_frequencies))
        v = np.zeros((m + 2, m + 2))
        v[2:, 1] = v[1, 2:] = -bath.couplings
        level = np.zeros(m + 2, dtype=int)
        level[1] = 1
        return h0, level, level - 1, [(np.arange(m + 2), v)]

    n_p = bath.particle_levels
    n_ph = bath.photons_per_mode + 1
    n_field = n_ph**m
    dim = n_p * n_field

    b = np.diag(np.sqrt(np.arange(1.0, n_p)), 1)  # the trap's ladder
    # photons[x, k]: mode k's photon count in field state x, the base-n_ph
    # digits of x with mode 0 leading (kron order)
    strides = n_ph ** np.arange(m - 1, -1, -1)
    photons = np.arange(n_field)[:, None] // strides % n_ph
    level = np.repeat(np.arange(n_p), n_field)
    # integer levels keep the trap energies exact; diag(b+ b) squares sqrt(n)
    h0 = level.astype(float)
    quadrature = np.zeros((n_field, n_field))  # sum_k kappa_k (a_k + a_k^+)
    for k in range(m):
        h0 += bath.mode_frequencies[k] * np.tile(photons[:, k], n_p)
        room = np.flatnonzero(photons[:, k] < bath.photons_per_mode)
        amp = bath.couplings[k] * np.sqrt(photons[room, k] + 1.0)
        quadrature[room, room + strides[k]] = quadrature[room + strides[k], room] = amp
    parity = (level + np.tile(photons.sum(axis=1), n_p)) % 2
    field = np.tile(np.arange(n_field), n_p)
    coupling = -(b + b.T)  # times quadrature: -kron(b + b+, quadrature) entry by entry
    blocks = [(idx, coupling[level[idx, None], level[idx]] * quadrature[field[idx, None], field[idx]])
              for idx in (np.flatnonzero(parity == p) for p in (0, 1))]
    return h0, level, np.arange(dim) - n_field, blocks


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


def _fit_phase_drift(times: np.ndarray, mean_b: np.ndarray) -> float:
    mag = np.abs(mean_b)
    usable = mag > 1e-12 * (mag.max() if mag.max() > 0 else 1.0)
    if np.count_nonzero(usable) < 8:
        raise FitFailure("<b> vanished; no phase to fit")
    phase = np.unwrap(np.angle(mean_b[usable]))
    slope = np.polyfit(times[usable], phase, 1)[0]
    return -float(slope) - 1.0


def _phases(energies: np.ndarray, t) -> np.ndarray:
    """``exp(-i E t)`` over energies by times (by one time, a vector), from
    ``cos`` and ``sin`` of ``-E t``."""
    angle = np.multiply.outer(-energies, t)
    phases = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    return phases


def _coordinates(u: np.ndarray, psi: np.ndarray) -> np.ndarray | None:
    """``u.T @ psi`` for a real ``u``, read from the nonzero entries of
    ``psi`` alone, so ``u`` is never copied to complex; None if ``psi`` is
    zero.  The zeros of ``psi`` add only zeros, so the values are those of
    the whole product."""
    j = np.flatnonzero(psi)
    return psi[j] @ u[j] if j.size else None


def bath_brute_force(
    bath: BathModel,
    rates_expected: tuple[float | None, float | None] | None = None,
    duration: float = 80.0,
    n_points: int = 2001,
) -> BathFitResult:
    """Exact evolution against the discrete bath; fit decay and drift.

    Both couplings take one path through the :func:`_hamiltonian` basis.
    Two runs share one diagonalization per block: ``|1> x |vac>`` for the
    survival probability ``P_1`` (decay fit on its logarithm, skipping the
    initial bandwidth transient) and ``(|0> + |1>)/sqrt 2 x |vac>`` for
    the phase drift of ``<b> = sum_j sqrt(level_j) conj(psi[lower_j]) psi[j]``
    (frequency-shift fit on the unwrapped phase).

    Each block of :func:`_hamiltonian` gets ``H0`` on its diagonal and one
    ``eigh``, shared by both runs, and is dropped once diagonalized; a run
    whose initial state has no amplitude in a block leaves it at zero
    (``|1> x |vac>`` lies wholly in the odd parity sector).  Each start's
    coordinates in a block's eigenvectors are read from its nonzero
    amplitudes alone, so the real eigenvectors are never copied to
    complex.  The time grid is then walked in ``ceil(n_points / _CHUNK)``
    chunks of near-equal width (``_CHUNK`` = 128 columns, so no chunk is
    narrower than 64 unless the grid is; a chunk of one or two columns
    takes another BLAS kernel and can move the last bits).  Each block's
    phase table ``exp(-i E t)``
    over the first chunk (as ``cos`` and ``sin`` of ``-E t``) is made once
    per run; a later chunk, whose times are ``t0`` plus the first chunk's
    up to rounding, takes that table times ``exp(-i E t0)``, one rotation
    of ``dim`` entries.  The chunk's phases feed both runs, whose
    populations, norms and ``<b>`` are reduced into their columns of three
    arrays of length ``n_points``; these, the tables, each run's product
    with the eigenvectors and the superposition state are made once per
    run.  A run holds O(dim**2 + dim * _CHUNK) numbers, never a
    ``(dim, n_points)`` array.

    The superposition's ground part ``|0> x |vac>`` lies wholly in the even
    parity sector of the product space, so in the odd one its columns are
    the decay run's over ``sqrt 2``: each chunk multiplies each sector's
    eigenvectors once, two products where running both starts through the
    odd sector took three.  The one-excitation sector is one block that
    holds both starts, so it keeps both products.

    Both runs start and stay in the module's gauge, where every block is
    float64, so each eigenvector product is one real ``gemm`` on the
    complex columns' real and imaginary parts.  Each chunk's ``<b>`` sum
    over the gauged amplitudes, between two contiguous runs of states, is
    multiplied by the gauge's phase step ``_STEP``, so ``P_1``, ``<b>`` and
    the norms are the physical ones.

    ``rates_expected`` is an optional ``(gamma, shift)`` pair recorded in
    the result for reporting; pass the discrete-sum references.
    ``duration`` must be positive and finite, with a grid sum of ``t**2``
    that neither overflows nor vanishes, and ``n_points`` at least 2.
    """
    _require_positive(duration, "duration")
    _require_count(n_points, "n_points", ConfigurationError, minimum=2)
    times = np.linspace(0.0, duration, n_points)
    with np.errstate(over="ignore", under="ignore"):  # both fits scale t by sqrt(sum t**2)
        if not 0.0 < np.sum(times * times) < math.inf:
            raise ConfigurationError(f"duration {duration} over/underflows the fits' sum of t**2")
    h0, level, lower, blocks = _hamiltonian(bath)
    # the initial states gauged: the phase is 1 at level 0 and _STEP at level 1
    i1 = int(np.flatnonzero(lower == 0)[0])
    decay0 = np.zeros(len(level), dtype=complex)
    decay0[i1] = np.conj(_STEP)
    sup0 = np.zeros(len(level), dtype=complex)
    sup0[[0, i1]] = np.conj([1, _STEP]) / math.sqrt(2.0)
    chunks = np.array_split(times, -(-n_points // _CHUNK))
    # per block: its states, energies, eigenvectors and first chunk's phase
    # table, and the coordinates of both initial states in the eigenvectors
    # (None where a run has no amplitude, and for the superposition where
    # the ground start, state 0, has none: there it is the decay run's)
    eigen = []
    while blocks:  # each block is dropped once diagonalized
        idx, h = blocks.pop(0)
        h[np.diag_indices_from(h)] += h0[idx]
        energies, u = np.linalg.eigh(h)
        del h
        eigen.append((idx, energies, u, _phases(energies, chunks[0]), _coordinates(u, decay0[idx]),
                      _coordinates(u, sup0[idx]) if idx[0] == 0 else None))
    # <b> pairs the states with a level below with those below them: two
    # contiguous runs (lower is arange(dim) - n_field in the product space)
    up = np.flatnonzero(lower >= 0)
    ladder = np.sqrt(level[up])
    up, down = slice(up[0], up[-1] + 1), slice(lower[up[0]], lower[up[-1]] + 1)

    # the rotated phase table, the spread coordinates and their product with
    # u, made once so that no chunk reallocates them (flat: each chunk's
    # leading part is contiguous)
    work = np.empty((3, max(len(idx) for idx, *_ in eigen) * len(chunks[0])), dtype=complex)
    # the superposition run's state, made once; the rows of a block it does
    # not touch stay zero
    sup_columns = np.zeros((len(level), len(chunks[0])), dtype=complex)

    def evolve(u: np.ndarray, phases: np.ndarray, coords: np.ndarray) -> np.ndarray:
        spread, out = (w[:phases.size].reshape(phases.shape) for w in work[1:])
        np.multiply(phases, coords[:, None], out=spread)
        # one real product over Re and Im side by side
        return np.matmul(u, spread.view(float), out=out.view(float)).view(complex)

    pop = np.zeros(n_points)
    norms = np.zeros(n_points)
    mean_b = np.empty(n_points, dtype=complex)
    lo = 0
    for t in chunks:
        cols = slice(lo, lo + len(t))
        lo += len(t)
        sup = sup_columns[:, :len(t)]
        for idx, energies, u, table, decay, start in eigen:
            phases = table
            if cols.start:  # exp(-i E (t0 + s)) = exp(-i E s) exp(-i E t0)
                phases = work[0, :len(idx) * len(t)].reshape(len(idx), len(t))
                np.multiply(table[:, :len(t)], _phases(energies, t[0])[:, None], out=phases)
            if decay is not None:
                psi = evolve(u, phases, decay)
                weight = np.abs(psi) ** 2
                pop[cols] += np.sum(weight[level[idx] == 1], axis=0)
                norms[cols] += np.sum(weight, axis=0)
                if start is None:  # no ground start here: the superposition is this over sqrt 2
                    sup[idx] = np.divide(psi, math.sqrt(2.0), out=psi)
            if start is not None:
                sup[idx] = evolve(u, phases, start)
        mean_b[cols] = _STEP * np.einsum("jt,j,jt->t", sup[down].conj(), ladder, sup[up])
    norm_drift = float(np.max(np.abs(norms - 1.0)))

    fit_mask = times >= _FIT_START_FRACTION * duration
    gamma_fit = _fit_decay(times[fit_mask], pop[fit_mask])
    shift_fit = _fit_phase_drift(times[fit_mask], mean_b[fit_mask])

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
