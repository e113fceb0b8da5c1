"""States, expectation values, the damped-oscillator solution, the witness.

States and operators are in trap units (``omega_c = hbar = m = 1``), as
in the generators.  The coherence witness is the ladder observable
``b^2 + (b+)^2`` (equal to ``x^2 - p^2`` in those units).  Its expectation
is identically zero on any diagonal (populations-only) state, so growth
of ``<W>`` from a thermal start is an unambiguous sign of two-quantum
coherence generation: the RWA generator can never produce it, the
beyond-RWA generator does.

Frequency extraction from trajectories uses phase unwrapping of the
analytic signal ``z = <x> + i <p> / (m w)`` -- a line fit to the unwrapped
phase resolves frequency shifts far below any FFT bin width at feasible
integration times.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ToleranceFailure, TruncationRisk, _require_count
from .evolve import EvolutionRecord
from .liouville import (
    DensityMatrix,
    FockSpace,
    _act,
    _pack,
    build_fock_operators,
    build_redfield_generator,
)
from .rates import RateSet

__all__ = [
    "ObservableSeries",
    "DampedOscillatorSolution",
    "make_state",
    "witness_sum",
    "series_from_record",
    "damped_oscillator_solution",
    "first_moment_rhs_check",
    "fit_phase_slope",
    "amplitude_peaks",
]


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """A labelled time series of expectation values."""

    times: np.ndarray
    values: np.ndarray
    label: str


def make_state(kind: str, space: FockSpace, **params) -> DensityMatrix:
    """Construct a standard initial state on ``space``.

    ``kind`` is one of:

    * ``"fock"``   -- ``n=<int>``; pure number state.
    * ``"coherent"`` -- ``alpha=<complex>``; truncated amplitudes
      ``exp(-|a|^2/2) a^n / sqrt(n!)``, renormalized after truncation.
    * ``"thermal"`` -- ``nbar=<float>``; geometric weights ``q^n`` with
      ``q = nbar/(1+nbar)``, renormalized after truncation.

    A missing parameter, a non-integer ``n`` and a non-finite ``alpha`` or
    ``nbar`` raise ``DimensionMismatch``.

    A ``TruncationRisk`` is raised when the requested state carries its
    weight too close to the truncation edge (mean excitation above
    ``dim/4``, echoing the guard-band policy, or a number state inside the
    guard band itself).
    """
    dim = space.dim
    if kind == "fock":
        n = _required(params, "n", kind)
        _reject_unknown(params)
        _require_count(n, "fock level")
        if not 0 <= n < dim:
            raise DimensionMismatch(f"fock level {n} outside 0..{dim - 1}")
        if n >= dim - 2:
            raise TruncationRisk(
                f"fock level {n} sits in the guard band of a {dim}-level space"
            )
        mat = np.zeros((dim, dim), dtype=complex)
        mat[n, n] = 1.0
        return DensityMatrix(mat)
    if kind == "coherent":
        alpha = complex(_required(params, "alpha", kind))
        _reject_unknown(params)
        if not cmath.isfinite(alpha):
            raise DimensionMismatch(f"alpha must be finite, got {alpha}")
        magnitude = abs(alpha)
        # compared before squaring: magnitude ** 2 overflows past about 1e154
        if magnitude > math.sqrt(dim / 4.0):
            raise TruncationRisk(
                f"|alpha|^2 = {magnitude * magnitude:.3f} exceeds dim/4 = {dim / 4.0}; "
                "enlarge the space"
            )
        mean = magnitude**2
        if alpha == 0:
            vecc = np.zeros(dim, dtype=complex)
            vecc[0] = 1.0
        else:
            # amplitudes via logs to dodge factorial overflow at large dim
            ns = np.arange(dim)
            log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
            vecc = np.exp(-mean / 2.0 + ns * np.log(complex(alpha)) - 0.5 * log_fact)
        vecc = vecc / np.linalg.norm(vecc)
        return DensityMatrix(np.outer(vecc, vecc.conj()))
    if kind == "thermal":
        nbar = float(_required(params, "nbar", kind))
        _reject_unknown(params)
        if not (0.0 <= nbar < math.inf):
            raise DimensionMismatch(f"nbar must be finite and nonnegative, got {nbar}")
        q = nbar / (1.0 + nbar)
        if nbar > dim / 4.0:
            raise TruncationRisk(
                f"nbar = {nbar:.3f} exceeds dim/4 = {dim / 4.0}; enlarge the space"
            )
        weights = q ** np.arange(dim)
        weights = weights / weights.sum()
        return DensityMatrix(np.diag(weights.astype(complex)))
    raise DimensionMismatch(f"unknown state kind {kind!r}")


def _required(params: dict, key: str, kind: str):
    if key not in params:
        raise DimensionMismatch(f"{kind} state needs {key}=")
    return params.pop(key)


def _reject_unknown(params: dict) -> None:
    if params:
        raise DimensionMismatch(f"unexpected state parameters: {sorted(params)}")


_OP_NAMES = ("x", "p", "n", "X")


def _operator(op_name: str, dim: int, space: FockSpace | None) -> np.ndarray:
    """The named operator on ``space`` (a ``dim``-level space when none is
    given), refusing a space of another dimension."""
    if op_name not in _OP_NAMES:
        raise DimensionMismatch(f"unknown observable {op_name!r}; have {_OP_NAMES}")
    if space is None:
        space = FockSpace(dim=dim)
    if space.dim != dim:
        raise DimensionMismatch(f"state dim {dim} does not match space dim {space.dim}")
    ops = build_fock_operators(space)
    return ops.witness if op_name == "X" else getattr(ops, op_name)


def _check_witness(values, ladder) -> None:
    """Refuse witness values that disagree with the ladder sum beyond rounding."""
    gap = np.abs(values - ladder)
    if np.any(gap > 1e-10 * np.maximum(1.0, np.abs(values))):
        raise ToleranceFailure(
            f"witness trace disagrees with the ladder sum by up to {np.max(gap):.3e}"
        )


def witness_sum(state: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Witness expectation from the explicit ladder sum.

    ``sum_n sqrt(n(n-1)) sigma[n, n-2] + sqrt((n+1)(n+2)) sigma[n, n+2]``
    -- an independent code path from the trace evaluation, kept for
    cross-checking.  Accepts one state or a ``(..., dim, dim)`` stack;
    real part returned.
    """
    mat = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    ns = np.arange(2, mat.shape[-1])
    weights = np.sqrt(ns * (ns - 1))
    lower = np.diagonal(mat, -2, -2, -1)
    upper = np.diagonal(mat, 2, -2, -1)
    return ((lower + upper) * weights).sum(axis=-1).real


def series_from_record(
    record: EvolutionRecord, op_name: str, space: FockSpace | None = None
) -> ObservableSeries:
    """Expectation series of a named operator along a stored trajectory.

    Read from the record's Hermitian coordinates without unpacking ``rho``:
    ``Tr[rho A] = w @ (Re vec A + Im vec A)`` for Hermitian ``rho`` and
    ``A``.  The witness is cross-checked against :func:`witness_sum` on
    ``W = w.reshape(n, dim, dim)`` transposed, a view, whose ``W + W.T``
    is ``2 Re rho``, all the ladder sum reads.
    """
    w = record.w
    dim = math.isqrt(w.shape[1])
    values = w @ _pack(_operator(op_name, dim, space))
    if op_name == "X":
        _check_witness(values, witness_sum(w.reshape(-1, dim, dim).transpose(0, 2, 1)))
    return ObservableSeries(times=record.times, values=values, label=op_name)


@dataclass(frozen=True)
class DampedOscillatorSolution:
    """Analytic first-moment solution parameters.

    ``lambda_plus/minus = -G/2 +- sqrt(G^2 - 4 w^2 - 8 w dw) / 2``; in the
    weak-damping regime they reduce to ``-G/2 +- i (w + dw)``.
    """

    x0: float
    gamma: float
    omega_eff: float
    lambda_plus: complex
    lambda_minus: complex


def damped_oscillator_solution(
    x0: float, gamma: float, omega_c: float, delta_omega: float
) -> DampedOscillatorSolution:
    """Build the root pair for given rates (any consistent units)."""
    disc = complex(gamma**2 - 4.0 * omega_c**2 - 8.0 * omega_c * delta_omega)
    root = np.sqrt(disc)
    return DampedOscillatorSolution(
        x0=x0,
        gamma=gamma,
        omega_eff=omega_c + delta_omega,
        lambda_plus=(-gamma + root) / 2.0,
        lambda_minus=(-gamma - root) / 2.0,
    )


def first_moment_rhs_check(rates: RateSet, dim: int = 16) -> float:
    """Residual of the first-moment equations under the beyond-RWA generator.

    The generator's adjoint action should satisfy, exactly,

        d<x>/dt = -G <x> + (1 + 2 dw) <p>
        d<p>/dt = -<x>

    in trap units, with ``dw = delta_minus - delta_plus``.  Both identities
    are checked at the operator level away from the guard band, with the
    adjoint ``left+ X + X right+ + sum conj(c) L+ X R+`` of the generator's
    triple applied to ``X = x, p``; the returned value is the largest
    relative deviation over the two channels.  Values at rounding level
    confirm the identities are exact consequences of the generator, not
    weak-damping approximations.
    """
    space = FockSpace(dim=dim)
    ops = build_fock_operators(space)
    left, right, jumps = build_redfield_generator(space, rates)._triple
    adjoint_jumps = [(np.conj(c), a.conj().T, b.conj().T) for c, a, b in jumps]
    dw = rates.delta_minus - rates.delta_plus
    x_expected = -rates.gamma * ops.x + (1.0 + 2.0 * dw) * ops.p

    keep = slice(0, dim - 3)
    res = 0.0
    for op, want in ((ops.x, x_expected), (ops.p, -ops.x)):
        got = _act(left.conj().T, right.conj().T, adjoint_jumps, op)
        scale = np.max(np.abs(want[keep, keep])) or 1.0
        res = max(res, float(np.max(np.abs((got - want)[keep, keep])) / scale))
    return res


def fit_phase_slope(
    times: np.ndarray,
    x_values: np.ndarray,
    p_values: np.ndarray,
    mass: float,
    omega_ref: float,
) -> float:
    """Oscillation frequency from the unwrapped phase of ``x + i p/(m w)``.

    Returns the fitted angular frequency (positive for the usual clockwise
    rotation of the analytic signal).  A straight line is fitted to the
    unwrapped phase; its slope is minus the frequency.
    """
    z = np.asarray(x_values) + 1j * np.asarray(p_values) / (mass * omega_ref)
    phase = np.unwrap(np.angle(z))
    slope = np.polyfit(np.asarray(times, dtype=float), phase, 1)[0]
    return -float(slope)


def amplitude_peaks(
    times: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parabolically refined local maxima of ``|values|``.

    Returns ``(peak_times, peak_heights)`` -- the oscillation envelope
    samples used for decay-rate comparisons.
    """
    t = np.asarray(times, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    # a peak rises from the left (ties allowed) and falls strictly to the right
    k = 1 + np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > 0.0))
    before, at, after = v[k - 1], v[k], v[k + 1]
    # parabola through (t_{k-1}, v_{k-1}), (t_k, v_k), (t_{k+1}, v_{k+1}); its
    # curvature is negative at every such k, rounding included: fl(before - 2 at)
    # <= -at and after < at, so it is never zero (-inf or NaN on overflow)
    shift = 0.5 * (before - after) / (before - 2.0 * at + after)
    return t[k] + shift * (t[k + 1] - t[k]), at - 0.25 * (before - after) * shift
