"""Shared fixtures plus the acceptance-criteria summary hook.

The helpers here are deliberately small: a seeded generator, a factory for
random Hermitian matrices, one for a jump that sets a single entry of a
generator's matrix, a reference dense generator added up from Kronecker
products, and the two-significant-figure comparator used wherever a
computed number is pinned against a value quoted to two digits.  Beside
them sit references the library computes another way: the column-major
``vec`` and its inverse, which the dense generators act on, the trace
``Tr[rho A]`` as one ``einsum``, and the hand-expanded (0, 2) row of the
beyond-RWA generator, :func:`sigma02_rhs`.

The terminal-summary hook collects the outcome of every test in
``test_acceptance.py`` and prints one PASS/FAIL line per criterion at the
end of the run, so the acceptance state is readable without scrolling
through the full log.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from vactrap.errors import DimensionTooSmall
from vactrap.liouville import DensityMatrix, _trap_rates
from vactrap.rates import RateSet


def ulp2(quoted: float) -> float:
    """One unit in the second significant digit of ``quoted``.

    ``|computed - quoted| <= ulp2(quoted)`` is the weakest tolerance under
    which a value printed to two significant figures (rounded *or*
    truncated) is consistent with the computed one.
    """
    if quoted == 0.0:
        raise ValueError("cannot size a significant digit of zero")
    return 10.0 ** (math.floor(math.log10(abs(quoted))) - 1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


@pytest.fixture
def herm_factory(rng):
    """Factory for random dense Hermitian matrices with unit Frobenius norm."""

    def make(dim: int) -> np.ndarray:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2.0
        return h / np.linalg.norm(h)

    return make


@pytest.fixture
def entry_jump():
    """Factory for the jump ``(1e-9, e_i e_j^T, e_l e_k^T)`` on ``dim`` levels,
    which adds 1e-9 to a generator's ``L`` at ``(row, col) = (k dim + i, l dim
    + j)`` and nowhere else (the jump ``(c, A, B)`` adds ``c kron(B.T, A)``)."""

    def make(dim: int, row: int, col: int):
        (k, i), (l, j) = divmod(row, dim), divmod(col, dim)
        eye = np.eye(dim)
        return 1e-9, np.outer(eye[i], eye[j]), np.outer(eye[l], eye[k])

    return make


@pytest.fixture
def kron_sum():
    """The dense ``L`` of a generator triple ``(left, right, [(c, L, R),
    ...])``, ``kron(I, left) + kron(right.T, I) + sum c kron(R.T, L)``
    added in that order: a reference for the library's COO, assembled
    without it."""

    def assemble(left, right, jumps):
        eye = np.eye(len(left))
        gen = np.kron(eye, left) + np.kron(right.T, eye)
        for coeff, op_left, op_right in jumps:
            gen += coeff * np.kron(op_right.T, op_left)
        return gen

    return assemble


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (Fortran order)."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector, dtype=complex).reshape((dim, dim), order="F")


def expectation(state, op: np.ndarray) -> float:
    """``Re Tr[rho A]`` of a state (a matrix or a ``DensityMatrix``) and a
    matrix, as one ``einsum``: a reference for the packed trace of
    ``series_from_record``."""
    return float(np.einsum("ij,ji->", getattr(state, "matrix", state), op).real)


def sigma02_rhs(sigma: np.ndarray | DensityMatrix, rates: RateSet) -> complex:
    """Time derivative of the two-quantum coherence entry ``sigma[0, 2]``.

    Hand-expanded matrix element of the beyond-RWA generator; exists as an
    independently written cross-check of the generator build (the two must
    agree to rounding error).  The entry couples to ``sigma[0, 0]``,
    ``sigma[1, 1]`` and ``sigma[2, 2]`` through the two-quantum channels --
    a diagonal (hence classical-looking) state of an undamped trap acquires
    this coherence at a rate proportional to the shifts, which is the
    qualitative signature separating the two treatments.

    Needs at least 5 levels so every coupled entry exists.
    """
    mat = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    if mat.shape[0] < 5:
        raise DimensionTooSmall(
            f"sigma02_rhs couples entries up to sigma[0, 4]; need dim >= 5, got {mat.shape[0]}"
        )
    g, dp_, dm_ = _trap_rates(rates)
    rt2 = np.sqrt(2.0)
    rt3 = np.sqrt(3.0)
    return (
        (2j * (1.0 + dm_ - dp_) - g) * mat[0, 2]
        + (rt3 * g - 2j * rt3 * dm_) * mat[0, 4]
        + rt3 * g * mat[1, 3]
        - (1j * rt2 * (dp_ + dm_) + g / rt2) * mat[1, 1]
        + rt2 * (1j * dm_ + 0.5 * g) * mat[2, 2]
        + 1j * rt2 * dp_ * mat[0, 0]
    )


# ---------------------------------------------------------------------------
# Acceptance summary: one line per criterion at the end of the run
# ---------------------------------------------------------------------------

_CRITERION = re.compile(r"test_criterion_(\d{2})([a-z]?)_([a-z0-9_]+)")
_acceptance_outcomes: dict[tuple[int, str], tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    key = (int(m.group(1)), m.group(2))
    label = m.group(3).replace("_", " ")
    if report.when == "call":
        _acceptance_outcomes[key] = (label, "PASS" if report.passed else "FAIL")
    elif report.when == "setup" and (report.failed or report.skipped):
        _acceptance_outcomes[key] = (label, "ERROR" if report.failed else "SKIP")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for (num, sub), (label, outcome) in sorted(_acceptance_outcomes.items()):
        name = f"criterion {num}{sub}"
        terminalreporter.write_line(f"{name:14s} {label:42s} {outcome}")
