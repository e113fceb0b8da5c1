"""Exact propagation on a uniform time grid, with trace/Hermiticity/positivity monitors.

Every snapshot time is on a uniform grid, so the trajectory is
``expm(L t_k) vec(rho0)`` with no step-size control and no tolerance: when
the grid has at least as many steps as the vectorized state has entries
and that state is small (dim 28 or less), one ``expm(L dt)`` is formed and
applied step by step; otherwise
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)) evaluates the whole grid.  The choice follows only
from the generator size and the snapshot count.

The propagated matrix is never projected, renormalized or symmetrized:
whatever the propagator produces is stored, and its defects (trace drift,
Hermiticity drift, most negative eigenvalue, guard-band population) are
recorded per time point.  Breaches raise by default, carrying the partial
record, so studies *of* a breach can pass ``raise_on_breach=False`` and
look at the diagnostics instead.  What counts as a positivity breach
depends on the generator: the RWA equation is completely positive, so any
visible negativity there is an integration defect and raises, while the
beyond-RWA equation is *supposed* to leak negativity (a small immediate
dip, growing without bound past the Gaussian horizon) -- for it min_eig
is diagnostic data only and positivity never aborts a run.  Truncation
overflow into the guard band aborts either way.

Time scales: real single-electron parameters put ``w/G`` near 1e11, so
direct integration over laboratory times is hopeless; dynamical studies are
meant to run in scaled units (``w = 1``, rates as dimensionless ratios, see
``RateSet.scaled``), while everything analytic stays in SI.

The analytic positivity horizon for Gaussian states is

    ``T_max = (G + sqrt(G^2 + 4 D^2)) / (4 D^2)``,   ``D = delta_minus_ren``

-- the positive root of ``4 D^2 t^2 - 2 G t - 1 = 0``; the state map stays
positive on Gaussian inputs strictly below it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import expm_multiply

from .errors import (
    DimensionMismatch,
    GuardBandOverflow,
    PositivityBreach,
    ToleranceFailure,
    UnboundedWindow,
)
from .liouville import DensityMatrix, Superoperator, trace_product, vec
from .params import ApproximationMode
from .rates import RateSet

__all__ = [
    "EvolutionRecord",
    "ValidityWindow",
    "integrate",
    "validity_window",
    "gaussian_positivity_check",
    "record_to_csv",
]

#: Positivity floor for completely positive (RWA) dynamics, where any
#: negative eigenvalue is propagation error.
POSITIVITY_FLOOR_CP = -1e-8
#: Maximum tolerated population in the top two (guard-band) levels.
GUARD_BAND_LIMIT = 1e-6
#: Snapshots per eigenvalue batch are sized to about this many bytes, so the
#: diagnostics temporaries stay small whatever the trajectory length.
_DIAGNOSTICS_BLOCK_BYTES = 2 * 1024 * 1024
#: Largest vectorized state (``dim**2``, here dim 28) propagated by the
#: cached ``expm(L dt)`` stepper.  Each of its steps is a dense product of
#: about N^2 operations, while an ``expm_multiply`` step costs about 0.4-1 ms
#: almost independently of N (per-term call overhead on a generator with
#: about 8N nonzeros).  Measured on 2 cores, the dense step is the slower one
#: from N = 1600 (dim 40) up, and past N = 1024 (dim 32) the set-up
#: ``expm`` needs more than N steps to pay for itself (``BENCH_6.json``,
#: ``crossover``).
_STEPPER_MAX_SIZE = 784


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Stored trajectory plus per-point diagnostics.

    ``rho[k]`` is the unvalidated snapshot at ``times[k]`` (the first entry
    is the supplied initial state), stacked as one ``(n_points, dim, dim)``
    array.  Diagnostics arrays align with ``times``: absolute trace
    deviation, max Hermiticity deviation, lowest eigenvalue of the
    Hermitized snapshot, and guard-band population.
    """

    times: np.ndarray
    rho: np.ndarray
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    guard_pop: np.ndarray

    @property
    def states(self) -> Sequence[DensityMatrix]:
        """Unvalidated snapshots as views over the rows of ``rho``."""
        return _SnapshotView(self.rho)


class _SnapshotView(Sequence):
    """Read-only sequence wrapping each row of a state stack on access."""

    def __init__(self, rho: np.ndarray):
        self._rho = rho

    def __len__(self) -> int:
        return len(self._rho)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        return DensityMatrix(self._rho[k], validate=False)


def integrate(
    generator: Superoperator,
    rho0: DensityMatrix | np.ndarray,
    t_span: tuple[float, float],
    n_points: int = 201,
    raise_on_breach: bool = True,
) -> EvolutionRecord:
    """Propagate ``rho0`` under ``generator`` over ``t_span``.

    ``n_points`` evenly spaced snapshots (including both endpoints) are
    stored, each the exact exponential ``expm(L t_k)`` applied to the
    vectorized initial state up to rounding: a cached ``expm(L dt)``
    stepper when ``n_points - 1`` is at least the vector length ``dim**2``
    and ``dim <= 28``, ``expm_multiply`` otherwise.

    Raises
    ------
    ToleranceFailure
        If the propagated trajectory has a non-finite entry (an unstable
        generator overflowing).
    PositivityBreach
        First stored time where the lowest eigenvalue drops below
        ``POSITIVITY_FLOOR_CP`` (-1e-8); raised for ``WITH_RWA`` generators
        only.
    GuardBandOverflow
        First stored time where the top two levels hold more than 1e-6
        population.
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(np.asarray(rho0, dtype=complex))
    if rho0.dim != generator.dim:
        raise DimensionMismatch(
            f"initial state dim {rho0.dim} does not match generator dim {generator.dim}"
        )
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"t_span must increase, got {t_span}")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")

    times = np.linspace(t0, t1, n_points)
    # an overflow is reported below as ToleranceFailure, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _propagate(generator.matrix, vec(rho0.matrix), times)
    finite = np.isfinite(traj).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ToleranceFailure(
            f"propagated state is not finite at t = {float(times[k])!r}; "
            "the generator is unstable (check spectral_abscissa)"
        )

    dim = generator.dim
    # (n, dim*dim) trajectory -> (n, dim, dim) view, column-major per snapshot
    rho = traj.reshape(n_points, dim, dim).transpose(0, 2, 1)
    trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    guard_pop = rho[:, -1, -1].real + rho[:, -2, -2].real
    herm_dev = np.empty(n_points)
    min_eig = np.empty(n_points)
    step = max(1, _DIAGNOSTICS_BLOCK_BYTES // rho[0].nbytes)
    for lo in range(0, n_points, step):
        block = rho[lo:lo + step]
        block_h = block.conj().transpose(0, 2, 1)
        herm_dev[lo:lo + step] = np.abs(block - block_h).max(axis=(1, 2))
        min_eig[lo:lo + step] = np.linalg.eigvalsh((block + block_h) / 2.0).min(axis=1)

    record = EvolutionRecord(
        times=times,
        rho=rho,
        trace_dev=trace_dev,
        herm_dev=herm_dev,
        min_eig=min_eig,
        guard_pop=guard_pop,
    )
    # The RWA generator is completely positive, so negativity there means
    # the integration itself broke.  The beyond-RWA generator leaks genuine
    # negativity (immediately at small amplitude, substantially past the
    # Gaussian horizon), so for it min_eig is recorded but never raised on.
    floor = (
        POSITIVITY_FLOOR_CP
        if generator.mode is ApproximationMode.WITH_RWA
        else -math.inf
    )
    breach = (min_eig < floor) | (guard_pop > GUARD_BAND_LIMIT)
    if raise_on_breach and breach.any():
        k = int(np.argmax(breach))
        if min_eig[k] < floor:
            raise PositivityBreach(
                f"state eigenvalue {min_eig[k]:.3e} below {floor} "
                f"at t = {times[k]!r}",
                time=float(times[k]),
                min_eigenvalue=float(min_eig[k]),
                record=record,
            )
        raise GuardBandOverflow(
            f"guard-band population {guard_pop[k]:.3e} above {GUARD_BAND_LIMIT} "
            f"at t = {times[k]!r}; enlarge the truncation",
            time=float(times[k]),
            population=float(guard_pop[k]),
            record=record,
        )
    return record


def _propagate(op: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``expm(op (t_k - t_0)) y0`` for each ``t_k`` of a uniform grid, one row each.

    With at least as many steps as ``op`` has rows, one dense ``expm(op dt)``
    is applied step by step, which spreads its O(N^3) cost over the steps;
    up to ``_STEPPER_MAX_SIZE`` rows only, past which the set-up and the
    dense steps were measured slower than ``expm_multiply``.  Otherwise
    ``expm_multiply`` touches ``op`` only through sparse products.
    """
    n_points, size = len(times), len(y0)
    if n_points - 1 < size or size > _STEPPER_MAX_SIZE:
        return expm_multiply(
            csr_array(op), y0, start=0.0, stop=times[-1] - times[0],
            num=n_points, endpoint=True,
        )
    step = expm(op * (times[1] - times[0]))
    out = np.empty((n_points, size), dtype=complex)
    out[0] = y0
    for k in range(1, n_points):
        np.dot(step, out[k - 1], out=out[k])
    return out


@dataclass(frozen=True)
class ValidityWindow:
    """Analytic Gaussian-positivity horizon and its inputs."""

    t_max: float
    gamma: float
    delta_minus_ren: float


def validity_window(rates: RateSet) -> ValidityWindow:
    """Horizon ``T_max`` for the rate set (uses the renormalized shift).

    Raises
    ------
    UnboundedWindow
        If the renormalized single-quantum shift vanishes (the horizon
        recedes to infinity; at ``G = 0`` the formula's limit
        ``1/(2 |D|)`` is returned normally).
    """
    d = rates.delta_minus_ren
    g = rates.gamma
    if d == 0.0:
        raise UnboundedWindow(
            "delta_minus_ren = 0: the Gaussian positivity window is unbounded"
        )
    t_max = (g + math.sqrt(g * g + 4.0 * d * d)) / (4.0 * d * d)
    return ValidityWindow(t_max=t_max, gamma=g, delta_minus_ren=d)


def gaussian_positivity_check(rates: RateSet, t: float) -> bool:
    """Whether the Gaussian state map is positivity-preserving at time ``t``.

    Evaluates ``G - 2 D^2 t > -1/(2 t)`` (equivalently ``t < T_max``); with
    ``D = 0`` the condition holds for every ``t``.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    d = rates.delta_minus_ren
    return rates.gamma - 2.0 * d * d * t > -1.0 / (2.0 * t)


def record_to_csv(
    record: EvolutionRecord,
    observables: dict[str, np.ndarray] | None = None,
) -> str:
    """Render a record as CSV: diagnostics plus optional observable columns.

    ``observables`` maps a column name to the operator whose expectation is
    evaluated against each stored state (real part).
    """
    names = list(observables) if observables else []
    header = ["time", "trace_dev", "herm_dev", "min_eig", "guard_pop", *names]
    columns = [record.times, record.trace_dev, record.herm_dev, record.min_eig,
               record.guard_pop]
    columns += [trace_product(record.rho, observables[name]).real for name in names]
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"
