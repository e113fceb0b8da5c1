"""Exact propagation on a uniform time grid, with trace, positivity and guard-band monitors.

Every snapshot time is on a uniform grid, so the trajectory is
``expm(L t_k) vec(rho0)`` with no step-size control and no tolerance.
It is propagated in Hermitian coordinates: a Hermitian ``rho`` is carried
by the real vector ``w = Re vec(rho) + Im vec(rho)``, which obeys
``dw/dt = G w`` with the real ``G = Re L + (Im L)[:, swap]``, ``swap[j]``
the vec index of the entry transposed to ``j``, and every product is real.
The record keeps the real rows as the propagator returns them; the
diagnostics read them directly (``w_jj = rho_jj`` and ``||rho||_F =
||w||_2``), and a snapshot is unpacked as ``rho_j = ((w_j + w_swap[j]) +
i (w_j - w_swap[j])) / 2``, Hermitian to the last bit, only where ``rho``
or ``min_eig`` is read.  How a generator is read is decided in
:mod:`.liouville`: its one reader gives ``G``'s nonzeros, their invariant
blocks and whether ``G`` conserves the trace, and refuses a generator that
does not preserve Hermiticity, since these coordinates would drop its
anti-Hermitian part.  The packing of ``w`` and the dense fill of the
blocks are kept there too; this module only propagates.  How ``G`` is
propagated, block by block or by ``expm_multiply``, and which spans are
too long for either to resolve, is set out once, in :func:`_propagate`.
Below the stepper's cap numpy does all the work; SciPy is imported only
where ``expm_multiply`` runs, so no other path loads it.

The propagated state is never projected, renormalized or symmetrized:
whatever the propagator produces is stored, and its defects (trace drift,
most negative eigenvalue, guard-band population) are recorded per time
point, the eigenvalue only where it is gated or read.  A breach raises,
and the exception carries the full record as ``.record``, so studies
*of* a breach catch it and look at the diagnostics there.  What counts as
a positivity breach depends on the generator: the RWA equation is
completely positive, so any visible negativity there is an integration
defect and raises, while the beyond-RWA equation is *supposed* to leak
negativity (a small immediate dip, growing without bound past the
Gaussian horizon) -- for it min_eig is diagnostic data only, computed on
first read, and positivity never aborts a run.  Truncation
overflow into the guard band aborts either way, and so does a guard-band
population below minus the same limit, the mark of a growing mode of the
truncated generator; where the generator conserves the trace, so does a
Hilbert-Schmidt norm above ``NORM_LIMIT``, a growing mode that leaves the
trace and the guard band alone.

Time scales: real single-electron parameters put ``w/G`` near 1e11, so
direct integration over laboratory times is hopeless.  The dynamics run in
trap units (``omega_c = hbar = m = 1``, rates as multiples of ``omega_c``
from ``RateSet.scaled``, times in ``1/omega_c``); the generator builders
refuse an SI rate set, and everything analytic stays in SI, the Gaussian
horizon (:func:`.rates.validity_window`) included.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatch,
    GuardBandOverflow,
    PositivityBreach,
    ToleranceFailure,
    _refuse_past_memory,
    _require_count,
)
from .liouville import (
    DensityMatrix,
    Superoperator,
    _dense_blocks,
    _hermitian_coordinates,
    _pack,
    _unpack,
)
from .params import ApproximationMode

__all__ = ["EvolutionRecord", "integrate"]

#: Positivity floor for completely positive (RWA) dynamics, where any
#: negative eigenvalue is propagation error.
POSITIVITY_FLOOR_CP = -1e-8
#: Maximum tolerated population in the top two (guard-band) levels.
GUARD_BAND_LIMIT = 1e-6
#: Largest tolerated trace drift |tr(rho) - 1|.  Ordinary runs read at most
#: about 1e-14, and the propagator's rounding over a span of 1e12 already
#: reads 3e-8 at dim 12.
TRACE_DEV_LIMIT = 1e-10
#: Largest tolerated Hilbert-Schmidt norm ``||rho||_F`` where the trace is
#: gated.  A trace-one Hermitian ``rho`` has ``||rho||_F <= ||rho||_1 = 1 +
#: 2 sum|negative eigenvalues|``, so a norm above 2 means a negativity of at
#: least 0.5.  Beyond-RWA at dim 20 reads 1.021 out to t = 1000, past the
#: Gaussian horizon.
NORM_LIMIT = 2.0
#: Largest invariant block (``_invariant_blocks``; beyond-RWA at dim 28 has
#: two of 392 entries) propagated by the cached ``expm(G_b dt)`` stepper.
#: Past it the O(m^3) set-up per block loses to ``expm_multiply`` over short
#: spans and wins over long ones; ROADMAP item 4 tables both paths at dims
#: 30, 36 and 40 with the stepper this module has.
_STEPPER_MAX_SIZE = 392
#: Snapshots per matrix product in the stepper (a power of two: the chunk
#: propagator ``S**_CHUNK`` is formed by ``log2(_CHUNK)`` squarings).
_CHUNK = 64


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Stored trajectory plus per-point diagnostics.

    ``w[k]`` is the unvalidated snapshot at ``times[k]`` in Hermitian
    coordinates (``Re vec rho + Im vec rho``), one real ``(n_points,
    dim*dim)`` array as the propagator returns it; the first row carries
    the Hermitian part of the supplied initial state.  ``rho`` is the same
    trajectory as a ``(n_points, dim, dim)`` complex stack, each snapshot
    exactly Hermitian, unpacked on its first read and kept.
    Diagnostics arrays align with ``times``: absolute trace deviation,
    guard-band population, and the lowest eigenvalue ``min_eig``, which
    is computed on its first read, unpacking ``_CHUNK`` rows at a time,
    and kept (``integrate`` reads it at once for a ``WITH_RWA`` generator,
    whose positivity it gates).
    """

    times: np.ndarray
    w: np.ndarray
    trace_dev: np.ndarray
    guard_pop: np.ndarray

    @cached_property
    def rho(self) -> np.ndarray:
        """Snapshots as one complex stack, unpacked on first read."""
        return _unpack(self.w)

    @cached_property
    def min_eig(self) -> np.ndarray:
        """Lowest eigenvalue of each snapshot, computed on first read."""
        return np.concatenate([
            np.linalg.eigvalsh(_unpack(self.w[lo:lo + _CHUNK])).min(axis=1)
            for lo in range(0, len(self.w), _CHUNK)
        ])

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
    vectorized initial state up to rounding.  The state is propagated in
    the Hermitian coordinates of :func:`_hermitian_coordinates`, from the
    Hermitian part of ``rho0`` (at most 1e-12 from it for a validated
    :class:`DensityMatrix`), and the record keeps the real rows that
    :func:`_propagate` returns, with no copy.  ``trace_dev`` and
    ``guard_pop`` are read from their diagonal columns (``w_jj =
    rho_jj``), and the norm gate from their 2-norms (``||w||_2 =
    ||rho||_F``).

    Raises
    ------
    ConfigurationError
        If ``t_span`` is not increasing with a finite length ``t1 - t0``,
        or ``n_points`` is not an integer of at least 2, or its grid would
        not fit in physical memory (``GuardExceeded``), or if the generator
        does not preserve Hermiticity (``max|conj(L) - L[swap][:, swap]|``
        above ``1e-12 max|L|``).
    ToleranceFailure
        If the propagated trajectory has a non-finite entry.  For a
        generator that conserves the trace (the verdict of
        :func:`_hermitian_coordinates`), also at the first stored time
        where, with neither limit below breached, the Hilbert-Schmidt norm
        exceeds ``NORM_LIMIT`` (2), which names a growing mode of the
        truncated generator, or ``trace_dev`` exceeds ``TRACE_DEV_LIMIT``
        (1e-10): either an unstable generator, or a span longer than the
        propagator's rounding can resolve.  Also, before anything is
        propagated, if :func:`_propagate` refuses a span whose ``||G||_1
        (t1 - t0)`` reaches ``1/eps``, on either method.
    PositivityBreach
        First stored time where the lowest eigenvalue drops below
        ``POSITIVITY_FLOOR_CP`` (-1e-8); raised for ``WITH_RWA`` generators
        only.
    GuardBandOverflow
        First stored time where the population of the top two levels
        exceeds 1e-6 in magnitude.  A positive one asks for a larger
        truncation; a negative one names a growing mode of the truncated
        generator, which a larger truncation need not cure.

    When several limits breach at the first such time, positivity is
    reported first, then the guard band, the norm and the trace.  Both
    breach exceptions, and a norm or trace-drift ``ToleranceFailure``,
    carry the full record as ``.record``.
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(np.asarray(rho0, dtype=complex))
    if rho0.dim != generator.dim:
        raise DimensionMismatch(
            f"initial state dim {rho0.dim} does not match generator dim {generator.dim}"
        )
    t0, t1 = float(t_span[0]), float(t_span[1])
    # a nan or infinite end, or two finite ends too far apart, leaves t1 - t0 not finite
    if not (t1 > t0 and math.isfinite(t1 - t0)):
        raise ConfigurationError(f"t_span must be finite and increasing, got {t_span}")
    _require_count(n_points, "n_points", ConfigurationError, minimum=2)
    dim = generator.dim
    # bytes per grid point: w, the complex diagonal and the diagnostics; tracemalloc
    # read this for both builders and methods at dim 6-16, 2001 and 8001 points
    peak = (8 * dim**2 + 16 * dim + 33) * n_points
    _refuse_past_memory(peak, f"a grid of {n_points} points on {dim} levels", "integrate")

    times = np.linspace(t0, t1, n_points)
    coords = _hermitian_coordinates(generator)
    # an overflow is reported below as ToleranceFailure, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        w = _propagate(coords, _pack((rho0.matrix + rho0.matrix.conj().T) / 2.0), times)
        norm = np.sqrt(np.einsum("ij,ij->i", w, w))
    causes = (
        "either the generator is unstable (check spectral_abscissa) or the span "
        "is longer than the propagator's rounding can resolve"
    )
    finite = np.isfinite(w).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ToleranceFailure(f"propagated state is not finite at t = {float(times[k])!r}; {causes}")
    populations = w[:, ::dim + 1]
    # summed as complex, the way np.trace sums the unpacked diagonal
    trace_dev = np.abs(populations.astype(complex).sum(axis=1) - 1.0)
    guard_pop = populations[:, -1] + populations[:, -2]
    record = EvolutionRecord(times=times, w=w, trace_dev=trace_dev, guard_pop=guard_pop)
    # The RWA generator is completely positive, so negativity there means
    # the integration itself broke, and min_eig is computed here to gate it.
    # The beyond-RWA generator leaks genuine negativity (immediately at
    # small amplitude, substantially past the Gaussian horizon), so for it
    # min_eig is never raised on and is computed only if it is read.
    rwa = generator.mode is ApproximationMode.WITH_RWA
    negative = record.min_eig < POSITIVITY_FLOOR_CP if rwa else np.zeros(n_points, dtype=bool)
    # Trace drift and the norm are propagation error only where the
    # generator conserves the trace (sum_i d(rho_ii)/dt = 0, as every
    # builder's does), so only there are they gated.
    _, _, conserving = coords
    drift_limit, norm_limit = (TRACE_DEV_LIMIT, NORM_LIMIT) if conserving else (math.inf, math.inf)
    guard_breach = np.abs(guard_pop) > GUARD_BAND_LIMIT
    breach = negative | guard_breach | (norm > norm_limit) | (trace_dev > drift_limit)
    if breach.any():
        k = int(np.argmax(breach))
        at = f"at t = {float(times[k])!r}"
        if negative[k]:
            raise PositivityBreach(
                f"state eigenvalue {record.min_eig[k]:.3e} below {POSITIVITY_FLOOR_CP} {at}",
                time=float(times[k]),
                min_eigenvalue=float(record.min_eig[k]),
                record=record,
            )
        growing = "the truncated generator has a growing mode (check spectral_abscissa)"
        if guard_breach[k]:
            if guard_pop[k] > 0.0:
                cause = f"above {GUARD_BAND_LIMIT} {at}; enlarge the truncation"
            else:
                cause = f"below -{GUARD_BAND_LIMIT} {at}; {growing}"
            raise GuardBandOverflow(
                f"guard-band population {guard_pop[k]:.3e} {cause}",
                time=float(times[k]),
                population=float(guard_pop[k]),
                record=record,
            )
        if norm[k] > norm_limit:
            raise ToleranceFailure(
                f"Hilbert-Schmidt norm {norm[k]:.3e} above {NORM_LIMIT} {at}; {growing}, "
                "which a larger truncation need not cure",
                record=record,
            )
        raise ToleranceFailure(
            f"trace drift {trace_dev[k]:.3e} above {TRACE_DEV_LIMIT} {at}; {causes}",
            record=record,
        )
    return record


def _propagate(coords, w0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The real ``(len(times), len(w0))`` trajectory ``expm(G (t_k - t_0)) w0``
    over a uniform grid of times ``t_k``.

    ``coords`` is the result of :func:`_hermitian_coordinates`: the ``(rows,
    cols, vals)`` triple of the nonzeros of ``G`` and its invariant blocks
    (the trace verdict is not read here).  The rounding of either method
    grows like ``eps ||G||_1 (t_1 - t_0)``, ``||G||_1`` the largest
    absolute column sum of the triple, so a span where that product
    reaches 1 is refused with ``ToleranceFailure`` before either runs.
    The largest block then chooses the method, whatever the grid:

    - With no block above ``_STEPPER_MAX_SIZE`` entries (its comment says
      where both paths are timed), the cost does not grow with the span,
      and numpy does all of it.  The guard keeps every entry of ``G_b dt``
      below ``1/eps``, so it is formed directly, and block ``b`` starts
      from ``a = G_b dt / 2**s``, ``s`` the least
      power with ``||a||_1 <= 0.05``, where the degree-8 Taylor sum of
      ``expm(a) - I`` in Horner form is exact to half an ulp (its tail is
      ``0.05**8 / 9!`` relative), and ``s`` doublings ``X -> 2 X + X @ X``
      give ``X = S_b - I``, ``S_b = expm(G_b dt)`` (Moler & Van Loan,
      SIAM Rev. 45, 3 (2003)).  After the initial row, chunks of width
      ``1, 2, 4, ..., _CHUNK, _CHUNK, ...`` each take the ``width`` rows
      before them times ``S_b**width``, from further doublings of the same
      chain, so rounding stays relative to ``S_b - I``; squaring ``S_b``
      directly measured twice as far from ``expm(L t)`` at dim 20,
      t = 300.  A block on which ``w0`` is all zero stays exactly zero
      and is written, not stepped.  The blocks fill the trajectory side by
      side, and its columns are put back in place one chunk of rows at a
      time, so no second trajectory-sized array exists.
    - Otherwise ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput.
      33, 488 (2011)) touches the whole ``G`` only through products with
      a CSR array built from the triple, in about ``||G||_1 (t_1 - t_0) /
      10`` steps, a count the guard above keeps from overflowing.  SciPy's
      trajectory is returned as it is.  This is the one place SciPy is
      imported.
    """
    (rows, cols, vals), blocks, _ = coords
    size = len(w0)
    n_points = len(times)
    span = times[-1] - times[0]
    norm_span = np.bincount(cols, weights=np.abs(vals), minlength=size).max() * span
    if not norm_span * np.finfo(float).eps < 1.0:
        raise ToleranceFailure(
            f"||G||_1 (t1 - t0) = {norm_span:.3e} reaches 1/eps, past what the "
            "propagator's rounding can resolve"
        )
    if max(len(idx) for idx in blocks) > _STEPPER_MAX_SIZE:
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import expm_multiply

        gen = csr_array((vals, (rows, cols)), shape=(size, size))
        return expm_multiply(gen, w0, start=0.0, stop=span, num=n_points, endpoint=True)
    dt = times[1] - times[0]
    out = np.empty((n_points, size))
    lo = 0
    for idx, block in _dense_blocks(coords):
        block_out = out[:, lo:lo + len(idx)]
        lo += len(idx)
        block_out[0] = w0[idx]
        if not block_out[0].any():
            # zeros times the step are exact zeros, so a block the initial
            # state does not touch is written, not stepped
            block_out[1:] = 0.0
            continue
        eye = np.eye(len(idx))
        a = block * dt
        s = max(0, int(np.frexp(np.abs(a).sum(axis=0).max() / 0.05)[1]))
        a = np.ldexp(a, -s)
        excess = a / 8.0
        for k in range(7, 0, -1):
            excess = a @ (eye + excess) / k
        for _ in range(s):
            excess = 2.0 * excess + excess @ excess
        start = 1
        while start < n_points:
            width = min(start, _CHUNK)
            if width == start:
                jump = (eye + excess).T
                if width < _CHUNK:
                    excess = 2.0 * excess + excess @ excess
            stop = min(start + width, n_points)
            block_out[start:stop] = block_out[start - width:stop - width] @ jump
            start = stop
    inverse = np.argsort(np.concatenate(blocks))
    for start in range(0, n_points, _CHUNK):
        out[start:start + _CHUNK] = out[start:start + _CHUNK, inverse]
    return out
