"""Truncated-level ladder operators and master-equation superoperators.

Vectorization convention (column-major / Fortran order throughout):
``vec(A @ sigma @ B) == kron(B.T, A) @ vec(sigma)`` with the matrix entry
``(i, j)`` at vector position ``i + j*dim``.

Truncation policy: operators are built on an ``dim``-level ladder and
products are formed *after* truncation, so the commutator ``[b, b+]`` is the
identity except for the ``(dim-1, dim-1)`` entry, which is ``1 - dim``.
The top two levels are treated as a guard band by the evolution layer:
population reaching them means the physical state no longer fits the
truncation, not that anything here silently fixed it up.

Every generator is a triple ``(left, right, jumps)`` acting as
``left @ sigma + sigma @ right + sum_k c_k L_k @ sigma @ R_k``, the one
input of a :class:`Superoperator`, which applies it (:func:`_act`) and
keeps the nonzeros of its matrix ``L`` (its COO, :func:`_coo`), the one
definition of ``L``.  ``L`` is the Kronecker sum ``kron(I, left) +
kron(right.T, I) + sum_k c_k kron(R_k.T, L_k)``, its terms added in that
order; the dense ``L`` is the COO scattered, only when ``.matrix`` is
read, which nothing in this package does.  The RWA generator is
the rotating part of the ladder triple (a damped oscillator at ``omega_c +
delta_minus``); the beyond-RWA generator adds the counter-rotating part (the
``-delta_plus`` frequency pull and the two-quantum ``b^2``, ``(b+)^2``
channels).

How a generator is read for numerics is decided here too, once:
:func:`_hermitian_coordinates` is its one reader, and gives the nonzeros of
the real generator ``G`` of Hermitian coordinates, their invariant blocks
(:func:`_invariant_blocks`) and whether ``G`` conserves the trace.
:mod:`.evolve` and :func:`spectral_abscissa` take that result whole, and
:func:`_dense_blocks` fills its blocks the same way for the stepper and for
the spectrum.  The coordinates themselves are kept here: :func:`_pack`
gives the real row of a matrix, and :func:`_unpack` turns rows back into
Hermitian matrices.

Everything here is in trap units, ``omega_c = hbar = m = 1``: generators
read ``gamma`` and the renormalized pair ``delta_plus`` / ``delta_minus`` of
a ``RateSet.scaled`` rate set, and refuse an SI one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatch,
    DimensionTooSmall,
    ToleranceFailure,
    _refuse_past_memory,
    _require_count,
)
from .params import ApproximationMode
from .rates import RateSet

__all__ = [
    "FockSpace",
    "FockOperators",
    "DensityMatrix",
    "Superoperator",
    "build_fock_operators",
    "build_redfield_generator",
    "build_lindblad_generator",
    "build_xp_generator",
    "build_2d_generator",
    "spectral_abscissa",
]


@dataclass(frozen=True)
class FockSpace:
    """A truncated ``dim``-level oscillator ladder in trap units
    (``omega_c = hbar = m = 1``)."""

    dim: int

    def __post_init__(self):
        _require_count(self.dim, "dim")
        if self.dim < 2:
            raise DimensionTooSmall(f"need at least 2 levels, got dim={self.dim}")


class FockOperators(NamedTuple):
    """Ladder and quadrature matrices on a truncated space."""

    b: np.ndarray
    bdag: np.ndarray
    x: np.ndarray
    p: np.ndarray
    n: np.ndarray

    @property
    def witness(self) -> np.ndarray:
        """Two-quantum coherence witness ``b^2 + (b+)^2``."""
        return self.b @ self.b + self.bdag @ self.bdag


def build_fock_operators(space: FockSpace) -> FockOperators:
    """Lowering/raising/position/momentum/number matrices (complex dense).

    ``b[n-1, n] = sqrt(n)``;  ``x = sqrt(1/2) (b + b+)``;
    ``p = -i sqrt(1/2) (b - b+)`` (trap units, so ``[x, p] = i`` away from
    the corner);  ``n = b+ b`` (exact ladder on the first ``dim-1`` levels,
    corner-truncated at the top).
    """
    dim = space.dim
    b = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    b[ns - 1, ns] = np.sqrt(ns)
    bdag = b.conj().T
    scale = np.sqrt(0.5)
    x = scale * (b + bdag)
    p = -1j * scale * (b - bdag)
    n = bdag @ b
    return FockOperators(b=b, bdag=bdag, x=x, p=p, n=n)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A (validated) density matrix on a truncated space.

    Validation enforces finite entries, Hermiticity and unit trace to 1e-12
    and eigenvalues above -1e-10.  ``EvolutionRecord.states`` wraps each
    stored snapshot unvalidated (``validate=False``): the evolution layer
    reports their deviations explicitly instead of hiding them behind
    renormalization.
    """

    matrix: np.ndarray
    validate: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if self.validate:
            if not np.isfinite(m).all():
                raise DimensionMismatch("density matrix has non-finite entries")
            herm = np.max(np.abs(m - m.conj().T))
            if herm > 1e-12:
                raise DimensionMismatch(f"not Hermitian: max|s - s+| = {herm:.3e}")
            tr = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
            if tr > 1e-12:
                raise DimensionMismatch(f"trace deviates from 1 by {tr:.3e}")
            min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
            if min_eig < -1e-10:
                raise DimensionMismatch(f"negative eigenvalue {min_eig:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# --------------------------------------------------------------------------
# Vectorization helpers (column-major convention, see module docstring)
# --------------------------------------------------------------------------

def _swap(dim: int) -> np.ndarray:
    """Vec index of the entry transposed to each vec index."""
    return np.arange(dim * dim).reshape(dim, dim).T.ravel()


def _pack(matrix: np.ndarray) -> np.ndarray:
    """Hermitian coordinates ``Re vec A + Im vec A`` of a matrix ``A``.

    They carry a Hermitian state (:func:`_unpack` gives it back), and for
    Hermitian ``rho`` and ``A``, ``Tr[rho A] = _pack(rho) @ _pack(A)``:
    ``Re vec`` is swap-symmetric and ``Im vec`` swap-antisymmetric, so the
    cross terms cancel.
    """
    v = np.asarray(matrix, dtype=complex).reshape(-1, order="F")
    return v.real + v.imag


def _unpack(rows: np.ndarray) -> np.ndarray:
    """The ``(n, dim, dim)`` Hermitian stack of ``(n, dim*dim)`` Hermitian
    coordinates, ``rho_j = ((w_j + w_swap[j]) + i (w_j - w_swap[j])) / 2``.

    Exactly Hermitian, since the sums and differences commute and negate
    exactly; the result is a transposed view of one new complex array.
    """
    dim = math.isqrt(rows.shape[1])
    # column-major per snapshot: [k, j, i] holds the entry (i, j), and the
    # strided transpose view holds its transpose, w_swap
    w = rows.reshape(-1, dim, dim)
    stack = np.empty(w.shape, dtype=complex)
    for part, combine in ((stack.real, np.add), (stack.imag, np.subtract)):
        combine(w, w.transpose(0, 2, 1), out=part)
        part /= 2.0
    return stack.transpose(0, 2, 1)


_Jump = tuple[complex, np.ndarray, np.ndarray]


class Superoperator:
    """The generator of a triple ``(left, right, jumps)``, whose matrices
    must all be ``(dim, dim)`` for one ``dim`` (``DimensionMismatch``); on
    a tensor-product space ``dim`` is the product of the per-axis level
    counts.  ``apply`` reads the triple.  ``coo`` is ``(rows, cols,
    vals)``, the nonzeros of the ``(dim**2, dim**2)`` matrix ``L``, the
    Kronecker sum ``kron(I, left) + kron(right.T, I) + sum c kron(R.T, L)``,
    in row-major order (:func:`_coo`).  ``matrix``, the dense ``L``, is the
    COO scattered on first read only, one ``16 dim**4``-byte array, and a
    generator whose dense matrix would not fit in physical memory is
    refused when it is built, with ``GuardExceeded``; one whose ``L`` has a
    non-finite entry, which the builders leave to this check unwarned, with
    ``ToleranceFailure``.
    """

    def __init__(self, left, right, jumps: list[_Jump], mode: ApproximationMode):
        levels = len(left)
        shapes = {np.shape(op) for op in (left, right, *(op for _, *ops in jumps for op in ops))}
        if shapes != {(levels, levels)}:
            raise DimensionMismatch(f"triple shapes are not one (dim, dim): {sorted(shapes)}")
        _refuse_past_memory(
            16 * levels**4, f"a generator on {levels} levels", "scatter its dense matrix"
        )
        self._triple = (left, right, jumps)
        self.coo = _coo(left, right, jumps)
        if not np.isfinite(self.coo[2]).all():
            raise ToleranceFailure(f"the generator on {levels} levels overflows the float range")
        self.mode = mode
        self.dim = levels

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense complex ``L``, the COO scattered into zeros on first
        read."""
        rows, cols, vals = self.coo
        dense = np.zeros((self.dim**2, self.dim**2), dtype=complex)
        dense[rows, cols] = vals
        return dense

    def apply(self, sigma: np.ndarray | DensityMatrix) -> np.ndarray:
        """Time derivative of ``sigma``, from the triple in O(dim**3)."""
        mat = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"state shape {mat.shape} does not match generator dim {self.dim}"
            )
        return _act(*self._triple, mat)


def _act(left: np.ndarray, right: np.ndarray, jumps: list[_Jump], sigma: np.ndarray):
    """``left @ sigma + sigma @ right + sum c L @ sigma @ R``, the terms
    added in the Kronecker sum's order, as a complex matrix."""
    sigma = np.asarray(sigma, dtype=complex)
    out = left @ sigma + sigma @ right
    for coeff, op_left, op_right in jumps:
        out += coeff * (op_left @ sigma @ op_right)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _coo(left: np.ndarray, right: np.ndarray, jumps: list[_Jump]):
    """The nonzeros of ``L``, the Kronecker sum ``kron(I, left) +
    kron(right.T, I) + sum c kron(R.T, L)`` of the triple ``(left, right,
    [(c, L, R), ...])``, as ``(rows, cols, vals)`` in row-major order,
    computed without the dense matrix, and bit for bit the entries that
    adding up the dense Kronecker products in that order gives.

    Each term ``c kron(B.T, A)`` (``kron(I, left)`` and ``kron(right.T,
    I)`` with no ``c``) adds ``c (B.T)[k, l] A[i, j]`` at ``(k dim + i, l
    dim + j)`` for the nonzeros of ``B.T`` and ``A``, formed by the same
    products as ``np.kron``.  A position takes each term at most once, and
    ``np.bincount`` sums its contributions in the Kronecker sum's term
    order, real and imaginary parts apart, as the dense additions do; the
    terms that skip it would add only zeros.  Positions that sum to an
    exact zero are dropped.
    """
    dim = len(left)
    size = dim * dim
    eye = np.eye(dim)
    keys, values = [], []
    for coeff, a, b in [(None, left, eye), (None, eye, right), *jumps]:
        (ai, aj), (bk, bl) = np.nonzero(a), np.nonzero(b.T)
        keys.append((((bk * dim)[:, None] + ai) * size + (bl * dim)[:, None] + aj).ravel())
        product = (b.T[bk, bl][:, None] * a[ai, aj]).ravel()
        values.append(product if coeff is None else coeff * product)
    keys, where = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.concatenate(values)
    vals = np.bincount(where, weights=values.real, minlength=len(keys)).astype(complex)
    vals.imag = np.bincount(where, weights=values.imag, minlength=len(keys))
    kept = vals != 0
    rows, cols = np.divmod(keys[kept], size)
    return rows, cols, vals[kept]


def _trap_rates(rates: RateSet) -> tuple[float, float, float]:
    """``(gamma, delta_plus, delta_minus)``, refusing a rate set at any
    ``omega_c`` but 1 (an SI one), which would be read against the wrong
    trap frequency."""
    if rates.omega_c != 1.0:
        raise ConfigurationError(
            f"generators run in trap units (omega_c = 1), got a rate set at "
            f"omega_c = {rates.omega_c!r}; use RateSet.scaled"
        )
    return rates.gamma, rates.delta_plus, rates.delta_minus


@np.errstate(over="ignore", invalid="ignore")
def _ladder_terms(
    b: np.ndarray, rates: RateSet, counter_rotating: bool
) -> tuple[np.ndarray, np.ndarray, list[_Jump]]:
    """Generator triple for one ladder matrix ``b`` (may be embedded): the
    rotating part, plus the counter-rotating part when asked for, whose
    ``b sigma b`` and ``b+ sigma b+`` jumps keep ``gamma/2`` at zero shifts."""
    g, dp_, dm_ = _trap_rates(rates)
    bdag = b.conj().T
    n = bdag @ b
    omega = 1.0 + dm_ - (dp_ if counter_rotating else 0.0)
    left = (-1j * omega - 0.5 * g) * n
    right = (1j * omega - 0.5 * g) * n
    jumps = [(g, b, bdag)]
    if counter_rotating:
        b2 = b @ b
        bdag2 = bdag @ bdag
        left = left + (0.5 * g + 1j * dm_) * b2 - 1j * dp_ * bdag2
        right = right + 1j * dp_ * b2 + (0.5 * g - 1j * dm_) * bdag2
        jumps += [
            (-(0.5 * g + 1j * (dm_ + dp_)), b, b),
            (-(0.5 * g - 1j * (dm_ + dp_)), bdag, bdag),
        ]
    return left, right, jumps


def build_redfield_generator(space: FockSpace, rates: RateSet) -> Superoperator:
    """Beyond-RWA (Redfield-class) generator on a truncated ladder.

    Not of Lindblad form: besides the damping channel it carries the
    two-quantum jumps ``b sigma b`` and ``b+ sigma b+``, which
    create/destroy coherences two levels apart.  Setting both shifts to
    zero does *not* reduce it to the RWA generator - the ``gamma/2``
    weights of those terms remain.
    """
    b = build_fock_operators(space).b
    triple = _ladder_terms(b, rates, counter_rotating=True)
    return Superoperator(*triple, ApproximationMode.BEYOND_RWA)


def build_lindblad_generator(space: FockSpace, rates: RateSet) -> Superoperator:
    """RWA generator: damped oscillator with frequency ``w + delta_minus``.

    Completely positive by construction; the vacuum (ground state) is
    stationary and diagonal states stay diagonal.
    """
    b = build_fock_operators(space).b
    triple = _ladder_terms(b, rates, counter_rotating=False)
    return Superoperator(*triple, ApproximationMode.WITH_RWA)


@np.errstate(over="ignore", invalid="ignore")
def build_xp_generator(space: FockSpace, rates: RateSet) -> Superoperator:
    """The beyond-RWA generator written in position/momentum operators.

    Same physics as :func:`build_redfield_generator` in a different algebra:
    a kinetic-energy commutator with renormalized mass, the bare potential
    commutator, momentum diffusion, two mixed ``p .. x`` channels and two
    pure-commutator counterterms.  Every term is bilinear in (x, p), so the
    truncated matrix agrees with the ladder form to rounding error -- the
    equality is exercised as a test invariant.
    """
    g, dp_, dm_ = _trap_rates(rates)
    ops = build_fock_operators(space)
    x, p = ops.x, ops.p

    p2 = p @ p
    x2 = x @ x
    xp = x @ p
    px = p @ x

    kinetic = -1j * (1.0 + 2.0 * (dm_ - dp_)) * (p2 / 2.0)
    potential = -0.5j * x2
    diffusion = g
    mixed_px = dm_ + dp_ + 0.5j * g
    mixed_xp = dm_ + dp_ - 0.5j * g
    counter_px = (dm_ - dp_ + 1.0 - 0.5j * g) / 2.0
    counter_xp = (dm_ - dp_ + 1.0 + 0.5j * g) / 2.0
    # each channel c (L sigma R - {R L, sigma}/2) loses c R L / 2 on both sides
    anti = 0.5 * (diffusion * p2 + mixed_px * xp + mixed_xp * px)
    left = kinetic + potential - anti + counter_xp * xp - counter_px * px
    right = -kinetic - potential - anti - counter_xp * xp + counter_px * px
    jumps = [(diffusion, p, p), (mixed_px, p, x), (mixed_xp, x, p)]
    return Superoperator(left, right, jumps, ApproximationMode.BEYOND_RWA)


@np.errstate(over="ignore", invalid="ignore")
def build_2d_generator(
    space_x: FockSpace, space_y: FockSpace, rates: RateSet
) -> Superoperator:
    """Beyond-RWA generator for planar motion (two ladders).

    The isotropic vacuum couples to the two orthogonal motions without
    cross terms (the mixed angular integrals vanish), so the planar
    generator is exactly the sum of two commuting single-axis generators
    acting on the tensor-product space.
    """
    bx_full = np.kron(build_fock_operators(space_x).b, np.eye(space_y.dim))
    by_full = np.kron(np.eye(space_x.dim), build_fock_operators(space_y).b)
    left_x, right_x, jumps_x = _ladder_terms(bx_full, rates, True)
    left_y, right_y, jumps_y = _ladder_terms(by_full, rates, True)
    return Superoperator(
        left_x + left_y, right_x + right_y, jumps_x + jumps_y, ApproximationMode.BEYOND_RWA
    )


def spectral_abscissa(superop: Superoperator) -> float:
    """Largest real part over the generator's eigenvalues.

    Zero (to roundoff) for a healthy dissipative generator.  The truncated
    beyond-RWA generator goes genuinely unstable once the two-quantum
    coupling at the top of the ladder competes with the trap frequency
    (roughly ``dim * delta ~ omega_c``): growing modes appear, seeded by
    roundoff, and long integrations explode.  Probe this before trusting a
    long run at large dimension or large shifts.

    The eigenvalues are taken block by block over the real generator ``G``
    of :func:`_hermitian_coordinates`, which is ``L`` acting on Hermitian
    matrices, whose complex span is every matrix: the same spectrum, at a
    fraction of the cost of one dense ``eigvals`` of ``L``.  A generator
    that does not preserve Hermiticity is refused with ``ConfigurationError``.
    """
    coords = _hermitian_coordinates(superop)
    return max(float(np.linalg.eigvals(block).real.max()) for _, block in _dense_blocks(coords))


def _invariant_blocks(rows: np.ndarray, cols: np.ndarray, size: int) -> list[np.ndarray]:
    """Index sets of the subspaces a generator never couples to each other.

    ``rows``, ``cols`` list the positions of the nonzeros of a ``(size,
    size)`` generator.  The sets are the connected components of that
    pattern, so the generator is block diagonal over them and ``expm``,
    eigenvalues and propagation can be taken block by block.  Exact zeros
    give an exact structure, so no tolerance enters.  On the pattern of ``G``,
    which :func:`_hermitian_coordinates` passes, beyond-RWA
    generators keep the parity of ``i - j`` (two blocks, four on the planar
    space) and the RWA generator the ``dim`` sets of fixed ``|i - j|``.
    Each set is ascending, and the sets are ordered by their smallest index.

    Each index points to a parent in its component, itself at first.
    Every pass hooks both ends of each edge, and the parents of both ends,
    onto the lesser grandparent found across it, then points each index at
    its grandparent (FastSV: Zhang, Azad & Hu, Proc. SIAM PP20, 2020).  A
    chain of ``n`` entries, numbered in order or at random, settles in about
    ``log2(n) + 1`` passes (measured up to ``n = 1e5``); a generator of
    dim 20 or 40 in five or six.  Parents only decrease, so once the parents
    form stars that agree across every edge, each index points to the
    smallest index of its component.
    """
    heads = np.concatenate([rows, cols])
    tails = np.concatenate([cols, rows])
    parent = np.arange(size)
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent) and np.array_equal(parent[heads], parent[tails]):
            break
        np.minimum.at(parent, parent[heads], grand[tails])
        np.minimum.at(parent, heads, grand[tails])
        np.minimum(parent, grand, out=parent)
    order = np.argsort(parent, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(parent[order])) + 1)


def _hermitian_coordinates(superop: Superoperator):
    """The real generator ``G`` of Hermitian coordinates, its invariant
    blocks, and whether it conserves the trace: the one reading of a
    generator that the numerics take.

    A Hermitian ``sigma`` is carried by the real vector ``w = Re vec(sigma)
    + Im vec(sigma)``, and ``w_j + w_swap[j]``, ``w_j - w_swap[j]`` give
    back twice its real and imaginary parts (``swap[j]`` the vec index of
    the entry transposed to ``j``).  ``L`` maps ``w`` to ``X w`` with ``X =
    ((1 + i) L + (1 - i) L[:, swap]) / 2``, so ``dw/dt = G w`` with ``G =
    Re X + Im X = Re L + (Im L)[:, swap]``.

    Returns ``(gen, blocks, conserving)``.  ``gen`` is the triple ``(rows,
    cols, vals)`` of the nonzeros of ``G``, one per position, in row-major
    order: the real parts of the nonzeros of ``L`` at ``(rows, cols)`` plus
    their imaginary parts at ``(rows, swap[cols])``, read from the COO of
    ``L`` (``superop.coo``), with neither ``L`` nor ``G`` formed as a dense
    array.  ``blocks`` are the :func:`_invariant_blocks` of that pattern.
    ``conserving`` says whether ``sum_i d(rho_ii)/dt = 0`` for every state
    (``w_ii = rho_ii``, so the diagonal rows of ``G`` sum to zero in every
    column) to ``1e-12 max|G|``, as every builder's generator does.

    Raises ``ConfigurationError`` unless ``L`` preserves Hermiticity
    (``conj(L) = L[swap][:, swap]`` to ``1e-12 max|L|``, the gate of
    :class:`DensityMatrix`): its anti-Hermitian part would be dropped.
    ``swap`` is an involution, so the largest gap over the nonzeros of ``L``
    is the largest gap over all of it; ``L[swap[r], swap[c]]`` is looked up
    among the sorted positions of the COO, and is 0 where it is not one.
    """
    rows, cols, vals = superop.coo
    size = superop.dim**2
    swap = _swap(superop.dim)
    positions = rows * size + cols
    mirrors = swap[rows] * size + swap[cols]
    at = np.minimum(np.searchsorted(positions, mirrors), len(positions) - 1)
    mirrored = np.where(positions[at] == mirrors, vals[at], 0.0)
    scale = np.abs(vals).max(initial=0.0)
    leak = np.abs(mirrored - vals.conj()).max(initial=0.0)
    if leak > 1e-12 * scale:
        raise ConfigurationError(
            f"the generator does not preserve Hermiticity: max|conj(L) - L[swap][:, swap]| "
            f"= {leak:.3e} against max|L| = {scale:.3e}"
        )
    # a position reached by both a real and an imaginary part takes their sum
    keys, where = np.unique(
        np.concatenate([positions, rows * size + swap[cols]]), return_inverse=True
    )
    sums = np.bincount(where, weights=np.concatenate([vals.real, vals.imag]))
    kept = sums != 0.0
    rows, cols = np.divmod(keys[kept], size)
    vals = sums[kept]
    # the rate of change of the trace per entry of w: column sums over the
    # diagonal rows, the vec indices that are their own transpose
    diagonal = swap[rows] == rows
    trace_rates = np.bincount(cols[diagonal], weights=vals[diagonal], minlength=size)
    conserving = bool(np.abs(trace_rates).max() <= 1e-12 * np.abs(vals).max(initial=0.0))
    return (rows, cols, vals), _invariant_blocks(rows, cols, size), conserving


def _dense_blocks(coords):
    """Yield ``(idx, G[idx][:, idx])``, dense and real, for each invariant
    block ``idx`` of the result of :func:`_hermitian_coordinates`, one at a
    time."""
    (rows, cols, vals), blocks, _ = coords
    size = sum(len(idx) for idx in blocks)
    # each nonzero's block, and its row and column within that block
    block_of = np.empty(size, dtype=int)
    local = np.empty(size, dtype=int)
    for b, idx in enumerate(blocks):
        block_of[idx] = b
        local[idx] = np.arange(len(idx))
    by_block = np.argsort(block_of[rows], kind="stable")
    nonzeros = np.split(by_block, np.cumsum(np.bincount(block_of[rows], minlength=len(blocks)))[:-1])
    for idx, nz in zip(blocks, nonzeros):
        block = np.zeros((len(idx), len(idx)))
        block[local[rows[nz]], local[cols[nz]]] = vals[nz]
        yield idx, block
