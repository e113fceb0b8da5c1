"""Exact propagation on a uniform time grid, with trace/Hermiticity/positivity monitors.

Every snapshot time is on a uniform grid, so the trajectory is
``expm(L t_k) vec(rho0)`` with no step-size control and no tolerance.  When
no invariant block of ``L`` is larger than 392 entries (beyond-RWA up to
dim 28; the RWA generator's blocks are at most ``dim``) and the grid has
at least ``min(N, 2 m)`` steps, ``N`` the vector length and ``m`` the
largest block's size, one ``expm(L_b dt)`` per block is formed and
applied step by step, in chunks of snapshots; otherwise
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)) evaluates the whole grid.  The choice follows only
from the generator's block sizes and the snapshot count.  The stepper
does all its products through SciPy's BLAS wrappers, on the OpenBLAS that
``scipy.linalg.expm`` calls: numpy carries a second OpenBLAS with its own
spinning worker thread, and switching between the two within a block made
each wait for a core on a 2-core machine.

The propagated matrix is never projected, renormalized or symmetrized:
whatever the propagator produces is stored, and its defects (trace drift,
Hermiticity drift, most negative eigenvalue, guard-band population) are
recorded per time point.  A breach raises, and the exception carries the
full record as ``.record``, so studies *of* a breach catch it and look at
the diagnostics there.  What counts as a positivity breach
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
from scipy.linalg import expm, get_blas_funcs
from scipy.sparse import csr_array
from scipy.sparse.linalg import expm_multiply

from ._csv import csv_text
from .errors import (
    ConfigurationError,
    DimensionMismatch,
    GuardBandOverflow,
    PositivityBreach,
    ToleranceFailure,
    UnboundedWindow,
)
from .liouville import (
    DensityMatrix,
    Superoperator,
    _invariant_blocks,
    trace_product,
    vec,
)
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
#: Largest invariant block (``_invariant_blocks``; beyond-RWA at dim 28 has
#: two of 392 entries) propagated by the cached ``expm(L_b dt)`` stepper.
#: Its set-up, one ``expm`` and ``log2(_CHUNK)`` squarings per block, grows
#: like m^3, while an ``expm_multiply`` step costs about 0.4-1 ms almost
#: independently of the size (per-term call overhead on a generator with
#: about 8N nonzeros).  Measured on 2 cores with ``n_points - 1 = dim**2``,
#: the smallest grid on which beyond-RWA takes the stepper, the stepper was
#: the slower path from dim 30 (two blocks of 450) at dt = 0.075
#: (``BENCH_7.json``, ``crossover``), so beyond-RWA generators take it up
#: to dim 28.  That crossover was measured while the stepper's products
#: ran on numpy's OpenBLAS and contended with ``expm``'s.  On one pool the
#: stepper wins at the same grid through dim 36 (0.81 against 0.99 s) and
#: loses from dim 40 (``BENCH_9.json``, ``crossover``); the cap is kept
#: until its peak RSS at those sizes is measured as well.
_STEPPER_MAX_SIZE = 392
#: Snapshots per matrix product in the stepper (a power of two: the chunk
#: propagator ``S**_CHUNK`` is formed by ``log2(_CHUNK)`` squarings).
_CHUNK = 64


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
) -> EvolutionRecord:
    """Propagate ``rho0`` under ``generator`` over ``t_span``.

    ``n_points`` evenly spaced snapshots (including both endpoints) are
    stored, each the exact exponential ``expm(L t_k)`` applied to the
    vectorized initial state up to rounding: a cached ``expm(L_b dt)``
    stepper per invariant block ``b`` of the generator when no block has
    more than ``_STEPPER_MAX_SIZE`` (392) entries and ``n_points - 1`` is at
    least ``min(dim**2, 2 m)``, ``m`` the largest block's size (``dim**2``
    beyond RWA, ``2 dim`` with RWA), ``expm_multiply`` otherwise.

    Raises
    ------
    ConfigurationError
        If ``t_span`` is not finite and increasing, or ``n_points < 2``.
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

    Both breach exceptions carry the full record as ``.record``.
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(np.asarray(rho0, dtype=complex))
    if rho0.dim != generator.dim:
        raise DimensionMismatch(
            f"initial state dim {rho0.dim} does not match generator dim {generator.dim}"
        )
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ConfigurationError(f"t_span must be finite and increasing, got {t_span}")
    if n_points < 2:
        raise ConfigurationError(f"n_points must be at least 2, got {n_points}")

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
    if breach.any():
        k = int(np.argmax(breach))
        if min_eig[k] < floor:
            raise PositivityBreach(
                f"state eigenvalue {min_eig[k]:.3e} below {floor} "
                f"at t = {float(times[k])!r}",
                time=float(times[k]),
                min_eigenvalue=float(min_eig[k]),
                record=record,
            )
        raise GuardBandOverflow(
            f"guard-band population {guard_pop[k]:.3e} above {GUARD_BAND_LIMIT} "
            f"at t = {float(times[k])!r}; enlarge the truncation",
            time=float(times[k]),
            population=float(guard_pop[k]),
            record=record,
        )
    return record


def _propagate(op: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``expm(op (t_k - t_0)) y0`` for each ``t_k`` of a uniform grid, one row each.

    With no invariant block (:func:`_invariant_blocks`) larger than
    ``_STEPPER_MAX_SIZE``, and at least ``min(N, 2 m)`` steps (``N`` rows,
    ``m`` entries in the largest block), each block is stepped with its
    own ``expm(op_b dt)`` (:func:`_step_blocks`), which spreads the O(m^3)
    set-up over the steps.  Beyond-RWA's two equal blocks need ``N`` steps;
    the RWA generator's ``2 dim - 1`` blocks of at most ``dim`` entries
    need ``2 dim``.  Otherwise ``expm_multiply`` touches the whole ``op``
    only through sparse products.
    """
    n_points, size = len(times), len(y0)
    sparse = csr_array(op)
    blocks = _invariant_blocks(sparse)
    largest = max(len(idx) for idx in blocks)
    if largest <= _STEPPER_MAX_SIZE and n_points - 1 >= min(size, 2 * largest):
        return _step_blocks(op, y0, times, blocks)
    return expm_multiply(
        sparse, y0, start=0.0, stop=times[-1] - times[0], num=n_points, endpoint=True
    )


def _step_blocks(
    op: np.ndarray, y0: np.ndarray, times: np.ndarray, blocks: list[np.ndarray]
) -> np.ndarray:
    """:func:`_propagate`'s stepper, one invariant block at a time.

    Block ``b`` gets ``S_b = expm(op_b dt)``.  After the initial row, chunks
    of width ``1, 2, 4, ..., _CHUNK, _CHUNK, ...`` each take the ``width``
    rows before them times ``S_b**width``, one matrix product per chunk.
    The powers are squared up as ``X = S_b - I`` with ``X -> 2 X + X @ X``,
    so rounding stays relative to ``S_b - I``; squaring ``S_b`` directly
    repeats its rounding in every chunk and measured twice as far from
    ``expm(L t)`` at dim 20, t = 300.  The blocks
    fill the output side by side; its columns are put back in place one
    chunk of rows at a time, so no second trajectory-sized array exists.

    Every product is a ``gemm`` from ``get_blas_funcs``, the OpenBLAS that
    ``expm`` runs on, never a numpy product: numpy's own OpenBLAS keeps a
    worker spinning after each call, and alternating the two pools made
    the 2 x 63 single steps a dim-20 run once took cost 54-59 ms against
    2 ms on one pool (2 cores; ``BENCH_9.json``, ``stages``).  The matrices
    are handed over transposed, which makes a C-ordered array
    Fortran-ordered without a copy.
    """
    n_points, dt = len(times), times[1] - times[0]
    out = np.empty((n_points, len(y0)), dtype=complex)
    gemm = get_blas_funcs("gemm", (out,))
    lo = 0
    for idx in blocks:
        hi = lo + len(idx)
        cols = out[:, lo:hi]
        cols[0] = y0[idx]
        # (S_b**width - I)^T, whose sum with I is the transposed power
        eye = np.eye(len(idx), order="F")
        excess = expm(op[np.ix_(idx, idx)] * dt).T - eye
        start = 1
        while start < n_points:
            width = min(start, _CHUNK)
            if width == start:
                jump = eye + excess
                if width < _CHUNK:
                    excess = gemm(1.0, excess, excess, beta=2.0, c=excess)
            stop = min(start + width, n_points)
            prev = cols[start - width:stop - width]
            cols[start:stop] = gemm(1.0, jump, prev.T, trans_a=1).T
            start = stop
        lo = hi
    inverse = np.argsort(np.concatenate(blocks))
    for start in range(0, n_points, _CHUNK):
        out[start:start + _CHUNK] = out[start:start + _CHUNK, inverse]
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
    return csv_text(header, zip(*columns))
