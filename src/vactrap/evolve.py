"""Exact propagation on a uniform time grid, with trace, positivity and guard-band monitors.

Every snapshot time is on a uniform grid, so the trajectory is
``expm(L t_k) vec(rho0)`` with no step-size control and no tolerance.
It is propagated in Hermitian coordinates: a Hermitian ``rho`` is carried
by the real vector ``w = Re vec(rho) + Im vec(rho)``, which obeys
``dw/dt = G w`` with the real ``G = Re L + (Im L)[:, swap]``, ``swap[j]``
the vec index of the entry transposed to ``j``.  Each snapshot is unpacked
as ``rho_j = ((w_j + w_swap[j]) + i (w_j - w_swap[j])) / 2``, so it is
Hermitian to the last bit, and every product is real.  ``G``, its
invariant blocks and their dense fill are read from ``L`` in
:mod:`.liouville`, which refuses a generator that does not preserve
Hermiticity, since these coordinates would drop its anti-Hermitian part;
this module only propagates.  How ``G`` is propagated, block by block or
by ``expm_multiply``, is set out once, in :func:`_propagate`.  Below the
stepper's cap numpy does all the work; SciPy is imported only where
``expm_multiply`` runs, so no other path loads it.

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
truncated generator.

Time scales: real single-electron parameters put ``w/G`` near 1e11, so
direct integration over laboratory times is hopeless.  The dynamics run in
trap units (``omega_c = hbar = m = 1``, rates as multiples of ``omega_c``
from ``RateSet.scaled``, times in ``1/omega_c``); the generator builders
refuse an SI rate set, and everything analytic stays in SI.

The analytic positivity horizon for Gaussian states is

    ``T_max = (G + sqrt(G^2 + 4 D^2)) / (4 D^2)``,   ``D = delta_minus_ren``

-- the positive root of ``4 D^2 t^2 - 2 G t - 1 = 0``; the state map stays
positive on Gaussian inputs strictly below it.
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
)
from .liouville import (
    DensityMatrix,
    Superoperator,
    _dense_blocks,
    _hermitian_coordinates,
    _invariant_blocks,
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
]

#: Positivity floor for completely positive (RWA) dynamics, where any
#: negative eigenvalue is propagation error.
POSITIVITY_FLOOR_CP = -1e-8
#: Maximum tolerated population in the top two (guard-band) levels.
GUARD_BAND_LIMIT = 1e-6
#: Largest tolerated trace drift |tr(rho) - 1|.  Ordinary runs read at most
#: about 1e-14, and the propagator's rounding over a span of 1e12 already
#: reads 3e-8 at dim 12.
TRACE_DEV_LIMIT = 1e-10
#: Largest invariant block (``_invariant_blocks``; beyond-RWA at dim 28 has
#: two of 392 entries) propagated by the cached ``expm(G_b dt)`` stepper.
#: Past it the O(m^3) ``expm`` set-up per block loses to ``expm_multiply``
#: over short spans: beyond-RWA at 101 points over t in [0, 10] took
#: 0.44-0.48 against 0.07-0.10 s at dim 40 and 1.35-1.44 against
#: 0.11-0.15 s at dim 48 (2 cores; timed when the step came from
#: ``scipy.linalg.expm``, before the stepper formed its own).
_STEPPER_MAX_SIZE = 392
#: Snapshots per matrix product in the stepper (a power of two: the chunk
#: propagator ``S**_CHUNK`` is formed by ``log2(_CHUNK)`` squarings).
_CHUNK = 64


#: Snapshots per eigenvalue batch are sized to about this many bytes, so the
#: diagnostics temporaries stay small whatever the trajectory length.
_DIAGNOSTICS_BLOCK_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Stored trajectory plus per-point diagnostics.

    ``rho[k]`` is the unvalidated snapshot at ``times[k]`` (the first entry
    is the Hermitian part of the supplied initial state), stacked as one
    ``(n_points, dim, dim)`` array, each snapshot exactly Hermitian.
    Diagnostics arrays align with ``times``: absolute trace deviation,
    guard-band population, and the lowest eigenvalue ``min_eig``, which
    is computed from ``rho`` on its first read and kept (``integrate``
    reads it at once for a ``WITH_RWA`` generator, whose positivity it
    gates).
    """

    times: np.ndarray
    rho: np.ndarray
    trace_dev: np.ndarray
    guard_pop: np.ndarray

    @cached_property
    def min_eig(self) -> np.ndarray:
        """Lowest eigenvalue of each snapshot, computed on first read."""
        n_points = len(self.rho)
        min_eig = np.empty(n_points)
        step = max(1, _DIAGNOSTICS_BLOCK_BYTES // self.rho[0].nbytes)
        for lo in range(0, n_points, step):
            min_eig[lo:lo + step] = np.linalg.eigvalsh(self.rho[lo:lo + step]).min(axis=1)
        return min_eig

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
    the Hermitian coordinates of :func:`_hermitian_coordinates`, and each
    snapshot is unpacked from them, exactly Hermitian (the sums and
    differences of ``w_j`` and ``w_swap[j]`` commute and negate exactly),
    and ``rho[0]`` is the Hermitian part of ``rho0`` (at most 1e-12 from
    it for a validated :class:`DensityMatrix`).  The real rows are
    propagated by :func:`_propagate`, written into the memory of the
    complex record and unpacked over it one chunk at a time, so no second
    trajectory-sized array exists.

    Raises
    ------
    ConfigurationError
        If ``t_span`` is not increasing with a finite length ``t1 - t0``,
        or ``n_points < 2``, or if the generator does not preserve
        Hermiticity (``max|conj(L) - L[swap][:, swap]|`` above
        ``1e-12 max|L|``).
    ToleranceFailure
        If the propagated trajectory has a non-finite entry, or, for a
        generator that conserves the trace, if ``trace_dev`` first exceeds
        ``TRACE_DEV_LIMIT`` (1e-10) with neither limit below breached at
        that time: either an unstable generator, or a span longer than the
        propagator's rounding can resolve.  Also if :func:`_propagate`
        refuses the span for ``expm_multiply``.
    PositivityBreach
        First stored time where the lowest eigenvalue drops below
        ``POSITIVITY_FLOOR_CP`` (-1e-8); raised for ``WITH_RWA`` generators
        only.
    GuardBandOverflow
        First stored time where the population of the top two levels
        exceeds 1e-6 in magnitude.  A positive one asks for a larger
        truncation; a negative one names a growing mode of the truncated
        generator, which a larger truncation need not cure.

    Both breach exceptions, and a trace-drift ``ToleranceFailure``, carry
    the full record as ``.record``.
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
    if n_points < 2:
        raise ConfigurationError(f"n_points must be at least 2, got {n_points}")

    times = np.linspace(t0, t1, n_points)
    dim = generator.dim
    size = dim * dim
    real_gen, swap = _hermitian_coordinates(generator.matrix)
    herm = vec((rho0.matrix + rho0.matrix.conj().T) / 2.0)
    # the stepper writes the real rows w_k into the first half of each row's
    # bytes of the complex record, which they are unpacked over below
    traj = np.empty((n_points, size), dtype=complex)
    real = traj.view(float)[:, :size]
    # an overflow is reported below as ToleranceFailure, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        _propagate(real_gen, herm.real + herm.imag, times, real)
    causes = (
        "either the generator is unstable (check spectral_abscissa) or the span "
        "is longer than the propagator's rounding can resolve"
    )
    finite = np.isfinite(real).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ToleranceFailure(f"propagated state is not finite at t = {float(times[k])!r}; {causes}")
    for lo in range(0, n_points, _CHUNK):
        w = real[lo:lo + _CHUNK].copy()
        w_swap = w[:, swap]
        chunk = traj[lo:lo + _CHUNK]
        chunk.real = (w + w_swap) / 2.0
        chunk.imag = (w - w_swap) / 2.0

    # (n, dim*dim) trajectory -> (n, dim, dim) view, column-major per snapshot
    rho = traj.reshape(n_points, dim, dim).transpose(0, 2, 1)
    trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    guard_pop = rho[:, -1, -1].real + rho[:, -2, -2].real
    record = EvolutionRecord(times=times, rho=rho, trace_dev=trace_dev, guard_pop=guard_pop)
    # The RWA generator is completely positive, so negativity there means
    # the integration itself broke, and min_eig is computed here to gate it.
    # The beyond-RWA generator leaks genuine negativity (immediately at
    # small amplitude, substantially past the Gaussian horizon), so for it
    # min_eig is never raised on and is computed only if it is read.
    negative = (
        record.min_eig < POSITIVITY_FLOOR_CP
        if generator.mode is ApproximationMode.WITH_RWA
        else np.zeros(n_points, dtype=bool)
    )
    # Trace drift is propagation error only where the generator conserves
    # the trace (sum_i d(rho_ii)/dt = 0, as every builder's does), so only
    # there is it gated.
    rows, cols, vals = real_gen
    diagonal = rows % (dim + 1) == 0
    trace_rate = np.abs(np.bincount(cols[diagonal], weights=vals[diagonal], minlength=size)).max()
    drift_limit = TRACE_DEV_LIMIT if trace_rate <= 1e-12 * np.abs(vals).max(initial=0.0) else math.inf
    breach = negative | (np.abs(guard_pop) > GUARD_BAND_LIMIT) | (trace_dev > drift_limit)
    if breach.any():
        k = int(np.argmax(breach))
        if negative[k]:
            raise PositivityBreach(
                f"state eigenvalue {record.min_eig[k]:.3e} below {POSITIVITY_FLOOR_CP} "
                f"at t = {float(times[k])!r}",
                time=float(times[k]),
                min_eigenvalue=float(record.min_eig[k]),
                record=record,
            )
        if abs(guard_pop[k]) <= GUARD_BAND_LIMIT:
            raise ToleranceFailure(
                f"trace drift {trace_dev[k]:.3e} above {TRACE_DEV_LIMIT} "
                f"at t = {float(times[k])!r}; {causes}",
                record=record,
            )
        if guard_pop[k] > 0.0:
            cause = f"above {GUARD_BAND_LIMIT} at t = {float(times[k])!r}; enlarge the truncation"
        else:
            cause = (
                f"below -{GUARD_BAND_LIMIT} at t = {float(times[k])!r}; the truncated "
                "generator has a growing mode (check spectral_abscissa)"
            )
        raise GuardBandOverflow(
            f"guard-band population {guard_pop[k]:.3e} {cause}",
            time=float(times[k]),
            population=float(guard_pop[k]),
            record=record,
        )
    return record


def _propagate(gen, w0: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
    """Write ``expm(gen (t_k - t_0)) w0`` into ``out[k]`` for each ``t_k`` of a uniform grid.

    ``gen`` is the ``(rows, cols, vals)`` triple of the real generator's
    nonzeros, as :func:`_hermitian_coordinates` returns it, and ``out`` a
    real ``(len(times), len(w0))`` array, possibly a strided view.  The
    invariant blocks of ``gen`` (:func:`_invariant_blocks`) choose the
    method, whatever the grid:

    - With no block above ``_STEPPER_MAX_SIZE`` entries (its comment gives
      the measurement that sets it), the cost does not grow with the span,
      and numpy does all of it.
      Block ``b`` starts from ``a = gen_b dt / 2**s``, ``s`` the least
      power with ``||a||_1 <= 0.05``, where the degree-8 Taylor sum of
      ``expm(a) - I`` in Horner form is exact to half an ulp (its tail is
      ``0.05**8 / 9!`` relative), and ``s`` doublings ``X -> 2 X + X @ X``
      give ``X = S_b - I``, ``S_b = expm(gen_b dt)`` (Moler & Van Loan,
      SIAM Rev. 45, 3 (2003)).  After the initial row, chunks of width
      ``1, 2, 4, ..., _CHUNK, _CHUNK, ...`` each take the ``width`` rows
      before them times ``S_b**width``, from further doublings of the same
      chain, so rounding stays relative to ``S_b - I``; squaring ``S_b``
      directly measured twice as far from ``expm(L t)`` at dim 20,
      t = 300.  A block on which ``w0`` is all zero stays exactly zero
      and is written, not stepped.  The blocks fill ``out`` side by side, and its columns are
      put back in place one chunk of rows at a time, so no second
      trajectory-sized array exists.
    - Otherwise ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput.
      33, 488 (2011)) touches the whole ``gen`` only through products with
      a CSR array built from the triple, in about ``||gen||_1 (t_1 - t_0) /
      10`` steps that each round at ``eps``: a span with ``||gen||_1 (t_1 -
      t_0) >= 1/eps`` raises ``ToleranceFailure`` first (SciPy's own step
      count would overflow into a ``ValueError``).  This is the one place
      SciPy is imported.
    """
    rows, cols, vals = gen
    size = len(w0)
    n_points = len(times)
    blocks = _invariant_blocks(rows, cols, size)
    if max(len(idx) for idx in blocks) > _STEPPER_MAX_SIZE:
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import expm_multiply, norm as sparse_norm

        gen = csr_array((vals, (rows, cols)), shape=(size, size))
        span = times[-1] - times[0]
        norm_span = sparse_norm(gen, 1) * span
        if not norm_span * np.finfo(float).eps < 1.0:
            raise ToleranceFailure(
                f"||L||_1 (t1 - t0) = {norm_span:.3e} reaches 1/eps; too long a span for expm_multiply"
            )
        out[...] = expm_multiply(gen, w0, start=0.0, stop=span, num=n_points, endpoint=True)
        return
    # dt = mantissa * 2**exponent: gen_b dt / 2**s is formed without gen_b dt,
    # which can overflow
    mantissa, exponent = np.frexp(times[1] - times[0])
    lo = 0
    for idx, block in _dense_blocks(gen, blocks):
        block_out = out[:, lo:lo + len(idx)]
        lo += len(idx)
        block_out[0] = w0[idx]
        if not block_out[0].any():
            # zeros times the step are exact zeros, so a block the initial
            # state does not touch is written, not stepped
            block_out[1:] = 0.0
            continue
        eye = np.eye(len(idx))
        a = block * mantissa
        s = max(0, exponent + int(np.frexp(np.abs(a).sum(axis=0).max() / 0.05)[1]))
        a = np.ldexp(a, exponent - s)
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


@dataclass(frozen=True)
class ValidityWindow:
    """Analytic Gaussian-positivity horizon ``t_max`` in the rate set's time
    unit; ``math.inf`` when positivity never breaks."""

    t_max: float


def validity_window(rates: RateSet) -> ValidityWindow:
    """Horizon ``T_max`` for the rate set (uses the renormalized shift).

    A vanishing renormalized single-quantum shift gives ``t_max = inf``,
    the formula's limit as ``D -> 0``; at ``G = 0`` the limit
    ``1/(2 |D|)`` is returned.  When ``4 D^2`` underflows the same root is
    evaluated as ``(r + hypot(r, 2)) / (4 |D|)`` with ``r = G/|D|``.
    """
    d, g = rates.delta_minus_ren, rates.gamma
    if d == 0.0:
        return ValidityWindow(t_max=math.inf)
    four_d2 = 4.0 * d * d
    if four_d2 == 0.0:
        r = g / abs(d)
        return ValidityWindow(t_max=(r + math.hypot(r, 2.0)) / (4.0 * abs(d)))
    return ValidityWindow(t_max=(g + math.sqrt(g * g + four_d2)) / four_d2)


def gaussian_positivity_check(rates: RateSet, t: float) -> bool:
    """Whether the Gaussian state map is positivity-preserving at time ``t``.

    Evaluates ``G - 2 D^2 t > -1/(2 t)`` (equivalently ``t < T_max``); with
    ``D = 0`` the condition holds for every ``t``.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    d = rates.delta_minus_ren
    return rates.gamma - 2.0 * d * d * t > -1.0 / (2.0 * t)
