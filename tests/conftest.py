"""Shared fixtures plus the acceptance-criteria summary hook.

The helpers here are deliberately small: a seeded generator, a factory for
random Hermitian matrices, one for a jump that sets a single entry of a
generator's matrix, a reference dense generator added up from Kronecker
products, and the two-significant-figure comparator used wherever a
computed number is pinned against a value quoted to two digits.

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
