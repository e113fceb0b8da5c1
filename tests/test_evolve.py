"""Propagation, diagnostics, breach policy, and the Gaussian positivity window."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import vactrap
from vactrap.errors import (
    ConfigurationError,
    DimensionMismatch,
    GuardBandOverflow,
    PositivityBreach,
    ToleranceFailure,
    UnboundedWindow,
)
from vactrap.evolve import (
    _CHUNK,
    _STEPPER_MAX_SIZE,
    GUARD_BAND_LIMIT,
    POSITIVITY_FLOOR_CP,
    _propagate,
    _step_blocks,
    gaussian_positivity_check,
    integrate,
    record_to_csv,
    validity_window,
)
from vactrap.liouville import (
    DensityMatrix,
    FockSpace,
    Superoperator,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
    vec,
)
from vactrap.observables import make_state, witness_sum
from vactrap.params import ApproximationMode, load_config
from vactrap.rates import RateSet, build_rate_set

STABLE = RateSet.scaled(1e-2, 5e-3, 8e-3)


def test_rwa_fock_decay_is_exponential():
    space = FockSpace(dim=8)
    rates = RateSet.scaled(0.2, 5e-3, 8e-3, mode=ApproximationMode.WITH_RWA)
    gen = build_lindblad_generator(space, rates)
    rho0 = make_state("fock", space, n=1)
    record = integrate(gen, rho0, (0.0, 10.0), n_points=41)
    pops = np.array([s.matrix[1, 1].real for s in record.states])
    expected = np.exp(-rates.gamma * record.times)
    assert np.max(np.abs(pops - expected)) < 1e-9
    assert record.trace_dev.max() < 1e-9
    assert record.herm_dev.max() < 1e-12
    assert record.min_eig.min() > -1e-12


_LADDER_BUILDS = (build_redfield_generator, build_lindblad_generator)


@pytest.mark.parametrize(
    "build, dim, n_points",
    # 64 steps >= 64 entries: the stepper
    [(build, 8, 65) for build in _LADDER_BUILDS]
    # 20 steps < 144 entries: expm_multiply
    + [(build, 12, 21) for build in _LADDER_BUILDS]
    # the stepper's grid crosses two chunk boundaries
    + [(build, 8, 2 * _CHUNK + 2) for build in (*_LADDER_BUILDS, build_xp_generator)],
)
def test_trajectory_is_the_exact_exponential(build, dim, n_points):
    space = FockSpace(dim=dim)
    gen = build(space, STABLE)
    starts = [make_state("coherent", space, alpha=0.4), make_state("thermal", space, nbar=0.05)]
    t_end = 40.0
    records = [integrate(gen, rho0, (0.0, t_end), n_points=n_points) for rho0 in starts]
    y0 = np.stack([vec(rho0.matrix) for rho0 in starts], axis=1)
    for k, t in enumerate(records[0].times):
        exact = expm(gen.matrix * t) @ y0
        for j, record in enumerate(records):
            assert np.max(np.abs(vec(record.rho[k]) - exact[:, j])) <= 1e-12
    # a later start gives the same trajectory: only t - t0 enters
    shifted = integrate(gen, starts[0], (10.0, 10.0 + t_end), n_points=n_points)
    assert np.max(np.abs(shifted.rho - records[0].rho)) <= 1e-12
    witness = witness_sum(records[1].rho)
    if gen.mode is ApproximationMode.WITH_RWA:
        # a diagonal start stays diagonal exactly: structural zeros survive
        assert np.all(witness == 0.0)
    else:
        assert np.abs(witness).max() > 1e-6


def _count_expm_multiply(monkeypatch) -> list:
    calls = []

    def counting_expm_multiply(a, *args, **kwargs):
        calls.append(a.shape)
        return expm_multiply(a, *args, **kwargs)

    monkeypatch.setattr("vactrap.evolve.expm_multiply", counting_expm_multiply)
    return calls


@pytest.mark.parametrize("size", [_STEPPER_MAX_SIZE, _STEPPER_MAX_SIZE + 1])
def test_dense_stepper_is_kept_to_small_generators(monkeypatch, size):
    # past the cap the stepper's dense steps lose to expm_multiply, however
    # many snapshots there are to spread its set-up over; the cap is on the
    # largest invariant block, and a tridiagonal generator is one block
    calls = _count_expm_multiply(monkeypatch)
    op = (
        np.diag(-np.linspace(0.0, 0.1, size) + 1j * np.linspace(0.0, 1.0, size))
        + 0.05j * (np.eye(size, k=1) + np.eye(size, k=-1))
    )
    y0 = np.ones(size, dtype=complex)
    times = np.linspace(0.0, 2.0, size + 1)
    traj = _propagate(op, y0, times)
    assert len(calls) == (0 if size <= _STEPPER_MAX_SIZE else 1)
    for k in (1, size // 2, size):
        assert np.abs(traj[k] - expm(op * times[k]) @ y0).max() <= 1e-12


def test_stepper_cap_applies_to_the_largest_block(monkeypatch):
    # a diagonal generator past the cap is that many blocks of one entry
    calls = _count_expm_multiply(monkeypatch)
    size = _STEPPER_MAX_SIZE + 1
    diagonal = -np.linspace(0.0, 0.1, size) + 1j * np.linspace(0.0, 1.0, size)
    times = np.linspace(0.0, 2.0, size + 1)
    traj = _propagate(np.diag(diagonal), np.ones(size, dtype=complex), times)
    assert calls == []
    assert np.abs(traj - np.exp(np.outer(times, diagonal))).max() <= 1e-12


@pytest.mark.parametrize("n_points", [24, 25, 41])
def test_short_rwa_grids_take_the_stepper(monkeypatch, n_points):
    # the RWA generator's largest block has dim entries, so 2 * dim steps
    # spread the stepper's set-up; beyond-RWA's two blocks still need dim**2
    calls = _count_expm_multiply(monkeypatch)
    space = FockSpace(dim=12)
    rwa = build_lindblad_generator(space, STABLE)
    rho0 = make_state("coherent", space, alpha=0.4)
    record = integrate(rwa, rho0, (0.0, 40.0), n_points=n_points)
    assert len(calls) == (0 if n_points - 1 >= 2 * space.dim else 1)
    y0 = vec(rho0.matrix)
    for k, t in enumerate(record.times):
        assert np.abs(vec(record.rho[k]) - expm(rwa.matrix * t) @ y0).max() <= 1e-12
    calls.clear()
    integrate(build_redfield_generator(space, STABLE), rho0, (0.0, 40.0), n_points=n_points)
    assert len(calls) == 1


@pytest.mark.parametrize("n_points", [2, 3, 5, 33, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_step_blocks_on_unequal_scattered_blocks(n_points):
    # blocks of 1, 2 and 5 entries whose columns interleave, so the output
    # is put back in place; the grid ends before, at and past chunk borders
    blocks = [np.array([3]), np.array([1, 2, 4, 5, 7]), np.array([0, 6])]
    rng = np.random.default_rng(7)
    op = np.zeros((8, 8), dtype=complex)
    for idx in blocks:
        a = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
        op[np.ix_(idx, idx)] = 0.3 * (a - a.conj().T) - 0.05 * np.eye(len(idx)) + 0.02 * a
    y0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    op_in, y0_in = op.copy(), y0.copy()
    times = np.linspace(0.0, 0.05 * (n_points - 1), n_points)
    traj = _step_blocks(op, y0, times, blocks)
    assert np.array_equal(op, op_in) and np.array_equal(y0, y0_in)
    for k, t in enumerate(times):
        assert np.abs(traj[k] - expm(op * t) @ y0).max() <= 1e-12


def test_beyond_rwa_negativity_is_recorded_not_raised():
    # strong shifts push a coherent state visibly below zero almost
    # immediately; the non-CP generator must record that, never abort
    space = FockSpace(dim=16)
    rates = RateSet.scaled(1e-2, 2e-2, 3e-2)
    gen = build_redfield_generator(space, rates)
    rho0 = make_state("coherent", space, alpha=1.0)
    record = integrate(gen, rho0, (0.0, 1.0), n_points=101)
    assert record.min_eig.min() < -1e-6
    assert record.min_eig.min() > -1e-2  # small dip, not an explosion


def test_same_trajectory_raises_when_labelled_completely_positive():
    # white box: the identical matrix relabelled as the CP branch trips the
    # positivity monitor, proving the policy dispatches on the mode tag
    space = FockSpace(dim=16)
    rates = RateSet.scaled(1e-2, 2e-2, 3e-2)
    gen = build_redfield_generator(space, rates)
    relabelled = Superoperator(matrix=gen.matrix, dim=gen.dim, mode=ApproximationMode.WITH_RWA)
    rho0 = make_state("coherent", space, alpha=1.0)
    with pytest.raises(PositivityBreach) as exc_info:
        integrate(relabelled, rho0, (0.0, 1.0), n_points=101)
    exc = exc_info.value
    assert exc.min_eigenvalue < POSITIVITY_FLOOR_CP
    assert 0.0 < exc.time < 1.0
    assert exc.record.times[-1] == 1.0  # full diagnostics retained


def test_guard_band_overflow_on_constructed_state():
    space = FockSpace(dim=8)
    gen = build_lindblad_generator(space, STABLE)
    mat = np.zeros((8, 8), dtype=complex)
    mat[0, 0] = 1.0 - 2e-6
    mat[7, 7] = 2e-6
    with pytest.raises(GuardBandOverflow, match=r"at t = 0\.0;") as exc_info:
        integrate(gen, mat, (0.0, 1.0), n_points=11)
    assert exc_info.value.time == 0.0
    assert exc_info.value.population > GUARD_BAND_LIMIT


def test_guard_band_overflow_on_underdimensioned_thermal_state():
    # nbar = 1 passes make_state's dim/4 rule at dim 16 but its geometric
    # tail already overfills the guard band: the run must refuse at t = 0
    space = FockSpace(dim=16)
    gen = build_redfield_generator(space, STABLE)
    rho0 = make_state("thermal", space, nbar=1.0)
    with pytest.raises(GuardBandOverflow) as exc_info:
        integrate(gen, rho0, (0.0, 10.0))
    assert exc_info.value.time == 0.0
    # the fix: eight more levels push the tail below the limit
    space24 = FockSpace(dim=24)
    integrate(
        build_redfield_generator(space24, STABLE),
        make_state("thermal", space24, nbar=1.0),
        (0.0, 1.0),
        n_points=11,
    )


def test_raise_on_breach_false_returns_full_record():
    # a breach at t = 0 still hands over every snapshot through the exception
    space = FockSpace(dim=16)
    gen = build_redfield_generator(space, STABLE)
    rho0 = make_state("thermal", space, nbar=1.0)
    with pytest.raises(GuardBandOverflow) as exc_info:
        integrate(gen, rho0, (0.0, 1.0), n_points=11)
    record = exc_info.value.record
    assert exc_info.value.time == 0.0
    assert len(record.states) == 11
    assert record.times[-1] == 1.0
    assert record.guard_pop[0] > GUARD_BAND_LIMIT


def test_blockwise_diagnostics_match_per_snapshot_formulas():
    # 1001 dim-20 snapshots span several diagnostics blocks
    space = FockSpace(dim=20)
    gen = build_redfield_generator(space, STABLE)
    rho0 = make_state("coherent", space, alpha=1.0)
    record = integrate(gen, rho0, (0.0, 50.0), n_points=1001)
    assert record.rho.shape == (1001, 20, 20)
    for k, mat in enumerate(record.rho):
        herm = (mat + mat.conj().T) / 2.0
        assert abs(record.trace_dev[k] - abs(np.trace(mat) - 1.0)) <= 1e-14
        assert abs(record.herm_dev[k] - np.max(np.abs(mat - mat.conj().T))) <= 1e-14
        assert abs(record.min_eig[k] - np.linalg.eigvalsh(herm).min()) <= 1e-14
        assert abs(record.guard_pop[k] - (mat[-1, -1].real + mat[-2, -2].real)) <= 1e-14
    for k in (0, 500, 1000):
        assert np.shares_memory(record.states[k].matrix, record.rho)
        assert np.array_equal(record.states[k].matrix, record.rho[k])


def test_positivity_wins_when_both_limits_breach_at_once():
    space = FockSpace(dim=8)
    gen = build_lindblad_generator(space, STABLE)
    assert gen.mode is ApproximationMode.WITH_RWA
    mat = np.zeros((8, 8), dtype=complex)
    mat[0, 0] = 1.0 - 1e-6
    mat[1, 1] = -1e-6  # eigenvalue below POSITIVITY_FLOOR_CP
    mat[7, 7] = 2e-6  # guard-band population above GUARD_BAND_LIMIT
    with pytest.raises(PositivityBreach) as exc_info:
        integrate(gen, DensityMatrix(mat, validate=False), (0.0, 1.0), n_points=11)
    assert exc_info.value.time == 0.0
    assert exc_info.value.min_eigenvalue < POSITIVITY_FLOOR_CP


def test_integrate_argument_validation():
    space = FockSpace(dim=6)
    gen = build_lindblad_generator(space, STABLE)
    rho0 = make_state("fock", space, n=0)
    for t_span in ((1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ConfigurationError, match="t_span"):
            integrate(gen, rho0, t_span)
    with pytest.raises(ConfigurationError, match="n_points"):
        integrate(gen, rho0, (0.0, 1.0), n_points=1)
    with pytest.raises(DimensionMismatch):
        integrate(gen, make_state("fock", FockSpace(dim=8), n=0), (0.0, 1.0))


@pytest.mark.parametrize("n_points", [5, 101])  # expm_multiply, then the stepper
def test_overflowing_generator_raises_tolerance_failure(n_points):
    space = FockSpace(dim=4)
    gen = build_lindblad_generator(space, STABLE)
    unstable = Superoperator(matrix=gen.matrix + 1e3 * np.eye(16), dim=4, mode=gen.mode)
    with pytest.raises(ToleranceFailure, match="not finite"):
        integrate(unstable, make_state("fock", space, n=0), (0.0, 1.0), n_points=n_points)


def test_import_does_not_load_scipy_integrate():
    src = str(Path(vactrap.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import vactrap; "
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


# ------------------------------------------------------------------ window


def test_validity_window_for_reference_trap():
    rates = build_rate_set(load_config("sec-reference"))
    window = validity_window(rates)
    assert window.t_max == pytest.approx(0.035644301694089886, rel=1e-12)
    assert window.gamma == rates.gamma
    assert window.delta_minus_ren == rates.delta_minus_ren
    # the horizon satisfies its defining quadratic
    t = window.t_max
    d, g = window.delta_minus_ren, window.gamma
    assert abs(4.0 * d * d * t * t - 2.0 * g * t - 1.0) < 1e-12


def test_validity_window_unbounded_when_shift_vanishes():
    with pytest.raises(UnboundedWindow):
        validity_window(RateSet.scaled(1e-2, 5e-3, 0.0))


def test_validity_window_zero_damping_limit():
    window = validity_window(RateSet.scaled(0.0, 0.0, 0.5))
    assert window.t_max == pytest.approx(1.0, rel=1e-14)  # 1 / (2 |D|)


def test_gaussian_check_flips_exactly_at_the_horizon():
    rates = build_rate_set(load_config("sec-reference"))
    t_max = validity_window(rates).t_max
    assert gaussian_positivity_check(rates, t_max * (1.0 - 1e-6))
    assert not gaussian_positivity_check(rates, t_max * (1.0 + 1e-6))


def test_gaussian_check_edge_cases():
    with pytest.raises(ValueError):
        gaussian_positivity_check(STABLE, 0.0)
    with pytest.raises(ValueError):
        gaussian_positivity_check(STABLE, -1.0)
    no_shift = RateSet.scaled(1e-2, 5e-3, 0.0)
    assert gaussian_positivity_check(no_shift, 1e12)


# --------------------------------------------------------------------- csv


def test_record_to_csv_layout():
    space = FockSpace(dim=8)
    gen = build_lindblad_generator(space, STABLE)
    record = integrate(gen, make_state("fock", space, n=1), (0.0, 1.0), n_points=3)
    ops = build_fock_operators(space)
    text = record_to_csv(record, observables={"n": ops.n})
    lines = text.strip().splitlines()
    assert lines[0] == "time,trace_dev,herm_dev,min_eig,guard_pop,n"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(1.0, abs=1e-12)  # <n> of |1><1|
    bare = record_to_csv(record)
    assert bare.splitlines()[0] == "time,trace_dev,herm_dev,min_eig,guard_pop"
