"""Propagation, diagnostics, breach policy, and the Gaussian positivity window."""
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from vactrap.cli import run_cli
from vactrap.errors import (
    ConfigurationError,
    DimensionMismatch,
    GuardBandOverflow,
    GuardExceeded,
    PositivityBreach,
    ToleranceFailure,
)
from vactrap.evolve import (
    _CHUNK,
    _STEPPER_MAX_SIZE,
    GUARD_BAND_LIMIT,
    NORM_LIMIT,
    POSITIVITY_FLOOR_CP,
    TRACE_DEV_LIMIT,
    _propagate,
    integrate,
)
from vactrap.liouville import (
    DensityMatrix,
    FockSpace,
    Superoperator,
    _hermitian_coordinates,
    _invariant_blocks,
    _swap,
    build_2d_generator,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
    spectral_abscissa,
)
from vactrap.observables import make_state, witness_sum
from vactrap.params import ApproximationMode, load_config
from vactrap.rates import RateSet, build_rate_set, gaussian_positivity_check, validity_window

from conftest import expectation, vec

STABLE = RateSet.scaled(1e-2, 5e-3, 8e-3)


def test_rwa_fock_decay_is_exponential():
    space = FockSpace(dim=8)
    rates = RateSet.scaled(0.2, 5e-3, 8e-3)
    gen = build_lindblad_generator(space, rates)
    rho0 = make_state("fock", space, n=1)
    record = integrate(gen, rho0, (0.0, 10.0), n_points=41)
    pops = np.array([s.matrix[1, 1].real for s in record.states])
    expected = np.exp(-rates.gamma * record.times)
    assert np.max(np.abs(pops - expected)) < 1e-9
    assert record.trace_dev.max() < 1e-9
    assert np.array_equal(record.rho, record.rho.conj().transpose(0, 2, 1))
    assert record.min_eig.min() > -1e-12


_LADDER_BUILDS = (build_redfield_generator, build_lindblad_generator)


_EXACT_CASES = (
    # the stepper
    [(build, 8, 65, _STEPPER_MAX_SIZE) for build in _LADDER_BUILDS]
    # expm_multiply, forced by a cap that no block fits under
    + [(build, 12, 21, 0) for build in _LADDER_BUILDS]
    # the stepper's grid crosses two chunk boundaries
    + [
        (build, 8, 2 * _CHUNK + 2, _STEPPER_MAX_SIZE)
        for build in (*_LADDER_BUILDS, build_xp_generator)
    ]
)


@pytest.mark.parametrize(
    "build, dim, n_points, cap",
    _EXACT_CASES,
    ids=[f"{build.__name__}-{dim}-{n_points}" for build, dim, n_points, _ in _EXACT_CASES],
)
def test_trajectory_is_the_exact_exponential(monkeypatch, build, dim, n_points, cap):
    monkeypatch.setattr("vactrap.evolve._STEPPER_MAX_SIZE", cap)
    calls = _count_expm_multiply(monkeypatch)
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
    assert len(calls) == (0 if cap else 3)
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

    # _propagate imports expm_multiply when it calls it, so it reads the
    # patched attribute
    monkeypatch.setattr("scipy.sparse.linalg.expm_multiply", counting_expm_multiply)
    return calls


def _coords(op: np.ndarray) -> tuple:
    """A real generator read the way ``_hermitian_coordinates`` reads one:
    the ``(rows, cols, vals)`` triple of its nonzeros, their invariant
    blocks, and a trace verdict, which ``_propagate`` does not read."""
    rows, cols = np.nonzero(op)
    return (rows, cols, op[rows, cols]), _invariant_blocks(rows, cols, len(op)), True


def _one_block(size: int) -> np.ndarray:
    """A damped real tridiagonal generator: one invariant block of ``size`` entries."""
    coupling = np.diag(np.linspace(0.05, 1.0, size - 1), k=1)
    return np.diag(-np.linspace(0.0, 0.1, size)) + coupling - coupling.T


@pytest.mark.parametrize("size", [_STEPPER_MAX_SIZE, _STEPPER_MAX_SIZE + 1])
def test_dense_stepper_is_kept_to_small_generators(monkeypatch, size):
    # past the cap the stepper's dense steps lose to expm_multiply, however
    # many snapshots there are to spread its set-up over; the cap is on the
    # largest invariant block, and a tridiagonal generator is one block
    calls = _count_expm_multiply(monkeypatch)
    gen = _one_block(size)
    w0 = np.ones(size)
    times = np.linspace(0.0, 2.0, size + 1)
    traj = _propagate(_coords(gen), w0, times)
    assert len(calls) == (0 if size <= _STEPPER_MAX_SIZE else 1)
    for k in (1, size // 2, size):
        assert np.abs(traj[k] - expm(gen * times[k]) @ w0).max() <= 1e-12


def test_stepper_cap_applies_to_the_largest_block(monkeypatch):
    # a diagonal generator past the cap is that many blocks of one entry
    calls = _count_expm_multiply(monkeypatch)
    size = _STEPPER_MAX_SIZE + 1
    diagonal = -np.linspace(0.0, 0.1, size)
    times = np.linspace(0.0, 2.0, size + 1)
    traj = _propagate(_coords(np.diag(diagonal)), np.ones(size), times)
    assert calls == []
    assert np.abs(traj - np.exp(np.outer(times, diagonal))).max() <= 1e-12


@pytest.mark.parametrize("n_points", [2, 3, 24, 41])
def test_short_rwa_grids_take_the_stepper(monkeypatch, n_points):
    # every grid below the cap takes the stepper, with or without the RWA,
    # and the stepper forms its own step exponential, with no SciPy expm
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr("scipy.linalg.expm", refuse)
    calls = _count_expm_multiply(monkeypatch)
    space = FockSpace(dim=12)
    rho0 = make_state("coherent", space, alpha=0.4)
    y0 = vec(rho0.matrix)
    for build in _LADDER_BUILDS:
        gen = build(space, STABLE)
        record = integrate(gen, rho0, (0.0, 40.0), n_points=n_points)
        for k, t in enumerate(record.times):
            assert np.abs(vec(record.rho[k]) - expm(gen.matrix * t) @ y0).max() <= 1e-12
    assert calls == []


def test_long_span_below_the_cap_takes_the_stepper(monkeypatch):
    # expm_multiply's cost grows with ||G||_1 (t1 - t0), the stepper's does
    # not; three snapshots over [0, 1e3] stay within 1e-12 of expm(L t)
    calls = _count_expm_multiply(monkeypatch)
    space = FockSpace(dim=12)
    gen = build_redfield_generator(space, STABLE)
    rho0 = make_state("coherent", space, alpha=0.4)
    record = integrate(gen, rho0, (0.0, 1e3), n_points=3)
    assert calls == []
    y0 = vec(rho0.matrix)
    for k, t in enumerate(record.times):
        assert np.abs(vec(record.rho[k]) - expm(gen.matrix * t) @ y0).max() <= 1e-12


def _trace_dev_column(argv: list[str], capsys) -> np.ndarray:
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[1] == "trace_dev"
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def test_long_span_keeps_the_trace(capsys):
    # a step of 5e7 is scaled down by 2**s and squared back up s times; the
    # trace drift stays near eps * s, far below the gate
    trace_dev = _trace_dev_column(["evolve", "--dim", "12", "--points", "3", "--t-end", "1e8"], capsys)
    assert trace_dev[-1] <= 1e-11


def test_trace_drift_failure_carries_the_full_record(monkeypatch, capsys):
    # the CLI run of a span longer than the stepper's rounding resolves
    caught = []

    def keeping(*args, **kwargs):
        try:
            return integrate(*args, **kwargs)
        except ToleranceFailure as exc:
            caught.append(exc)
            raise

    monkeypatch.setattr("vactrap.cli.integrate", keeping)
    assert run_cli(["evolve", "--dim", "12", "--points", "3", "--t-end", "1e12"]) == 2
    assert "trace drift" in capsys.readouterr().err
    (exc,) = caught
    assert len(exc.record.times) == 3 and exc.record.times[-1] == 1e12
    assert exc.record.trace_dev[-1] > TRACE_DEV_LIMIT


_GROWING = ["evolve", "--gamma", "0.01", "--delta-plus", "-0.02", "--delta-minus", "-0.015"]


@pytest.mark.parametrize(
    "grid, t_breach",
    [
        (["--dim", "32", "--t-end", "300", "--points", "31"], 250.0),
        (["--dim", "28", "--t-end", "1000", "--points", "101"], 610.0),
    ],
    ids=["dim32", "dim28"],
)
def test_growing_mode_that_keeps_trace_and_guard_band_is_caught(monkeypatch, capsys, grid, t_breach):
    # at these negative shifts the truncated generator grows in the odd i - j
    # block, which holds <b> but neither the trace nor the guard band; the
    # Hilbert-Schmidt norm sees it
    caught = []

    def keeping(*args, **kwargs):
        try:
            return integrate(*args, **kwargs)
        except ToleranceFailure as exc:
            caught.append(exc)
            raise

    monkeypatch.setattr("vactrap.cli.integrate", keeping)
    assert run_cli(_GROWING + grid) == 2
    err = capsys.readouterr().err
    assert err.startswith("vactrap: numerical guard: Hilbert-Schmidt norm ")
    assert f"above {NORM_LIMIT} at t = {t_breach};" in err
    assert "growing mode" in err and "spectral_abscissa" in err
    assert "enlarge" not in err and "Traceback" not in err
    (exc,) = caught
    record = exc.record
    k = int(np.searchsorted(record.times, t_breach))
    assert record.trace_dev.max() <= TRACE_DEV_LIMIT
    assert np.abs(record.guard_pop).max() <= GUARD_BAND_LIMIT
    assert np.linalg.norm(record.rho[k]) > NORM_LIMIT >= np.linalg.norm(record.rho[k - 1])


def test_long_grid_trace_drift_is_far_below_the_limit(capsys):
    # the benchmark's 4001-point beyond-RWA run, where the limit is sized
    # at least a hundred times above the drift of ordinary runs
    argv = ["evolve", "--dim", "20", "--t-end", "300", "--points", "4001"]
    trace_dev = _trace_dev_column(argv, capsys)
    assert trace_dev.max() <= 1e-14
    assert trace_dev.max() * 100 <= TRACE_DEV_LIMIT


def test_expm_multiply_trajectory_is_kept_as_returned(monkeypatch):
    # the record stores the array expm_multiply returns, with no copy
    monkeypatch.setattr("vactrap.evolve._STEPPER_MAX_SIZE", 0)
    returned = []

    def marking_expm_multiply(*args, **kwargs):
        returned.append(expm_multiply(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr("scipy.sparse.linalg.expm_multiply", marking_expm_multiply)
    space = FockSpace(dim=8)
    rho0 = make_state("coherent", space, alpha=0.4)
    record = integrate(build_redfield_generator(space, STABLE), rho0, (0.0, 10.0), n_points=21)
    (traj,) = returned
    assert record.w is traj


@pytest.mark.parametrize(
    "size", [_STEPPER_MAX_SIZE, _STEPPER_MAX_SIZE + 1], ids=["stepper", "expm_multiply"]
)
def test_span_guard_covers_both_routes(monkeypatch, size):
    # a span whose ||G||_1 (t1 - t0) reaches 1/eps is refused before either
    # route runs: the stepper's step would overflow, and expm_multiply's
    # step count with it
    calls = _count_expm_multiply(monkeypatch)
    with pytest.raises(ToleranceFailure, match=r"\|\|G\|\|_1 \(t1 - t0\) = .* reaches 1/eps, .*rounding"):
        _propagate(_coords(_one_block(size)), np.ones(size), np.linspace(0.0, 1e300, 3))
    assert calls == []


@pytest.mark.parametrize("n_points", [2, 3, 5, 33, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_step_blocks_on_unequal_scattered_blocks(n_points):
    # blocks of 1, 2 and 5 entries whose columns interleave, so the output
    # is put back in place; the grid ends before, at and past chunk borders
    blocks = [np.array([3]), np.array([1, 2, 4, 5, 7]), np.array([0, 6])]
    rng = np.random.default_rng(7)
    op = np.zeros((8, 8))
    for idx in blocks:
        a = rng.normal(size=(len(idx),) * 2)
        op[np.ix_(idx, idx)] = 0.3 * (a - a.T) - 0.05 * np.eye(len(idx)) + 0.02 * a
    coords = _coords(op)
    gen = coords[0]
    gen_in = [part.copy() for part in gen]
    assert sorted(map(list, coords[1])) == sorted(map(list, blocks))
    w0 = rng.normal(size=8)
    w0_in = w0.copy()
    times = np.linspace(0.0, 0.05 * (n_points - 1), n_points)
    traj = _propagate(coords, w0, times)
    assert all(map(np.array_equal, gen, gen_in)) and np.array_equal(w0, w0_in)
    for k, t in enumerate(times):
        assert np.abs(traj[k] - expm(op * t) @ w0).max() <= 1e-12


_SMALL_GENERATORS = {
    "redfield": lambda: build_redfield_generator(FockSpace(dim=6), STABLE),
    "lindblad": lambda: build_lindblad_generator(FockSpace(dim=6), STABLE),
    "xp": lambda: build_xp_generator(FockSpace(dim=6), STABLE),
    "planar": lambda: build_2d_generator(FockSpace(dim=3), FockSpace(dim=3), STABLE),
}


@pytest.mark.parametrize("name", sorted(_SMALL_GENERATORS))
def test_hermitian_coordinates_carry_the_generator(herm_factory, name):
    # G w(sigma) = w(L vec sigma), w = Re vec + Im vec, on Hermitian sigma
    gen = _SMALL_GENERATORS[name]()
    (rows, cols, vals), _, _ = _hermitian_coordinates(gen)
    assert vals.dtype == np.float64 and np.all(vals != 0.0)
    size = len(gen.matrix)
    swap = _swap(gen.dim)
    # one entry per position, in row-major order
    keys = rows * size + cols
    assert np.all(np.diff(keys) > 0)
    real_gen = np.zeros((size, size))
    real_gen[rows, cols] = vals
    scale = np.abs(gen.matrix).max()
    for _ in range(3):
        v = vec(herm_factory(gen.dim))
        assert np.array_equal(v[swap], v.conj())
        image = gen.matrix @ v
        gap = np.abs(real_gen @ (v.real + v.imag) - (image.real + image.imag)).max()
        assert gap <= 1e-14 * scale


def test_generator_that_breaks_hermiticity_is_refused(entry_jump):
    space = FockSpace(dim=4)
    gen = build_lindblad_generator(space, STABLE)
    rho0 = make_state("fock", space, n=0)
    left, right, jumps = gen._triple
    broken = Superoperator(left, right, [*jumps, entry_jump(4, 1, 0)], gen.mode)
    with pytest.raises(ConfigurationError, match="Hermiticity"):
        integrate(broken, rho0, (0.0, 1.0), n_points=11)
    with pytest.raises(ConfigurationError, match="Hermiticity"):
        spectral_abscissa(broken)
    # a real shift of the spectrum keeps Hermiticity: propagated, not refused
    shifted = Superoperator(left + 500.0 * np.eye(4), right + 500.0 * np.eye(4), jumps, gen.mode)
    record = integrate(shifted, rho0, (0.0, 0.1), n_points=5)
    assert record.rho[-1, 0, 0].real == pytest.approx(math.exp(100.0), rel=1e-12)


@pytest.mark.parametrize("n_points, expm_multiply_calls", [(65, 0), (21, 1)])
def test_snapshots_are_exactly_hermitian(monkeypatch, n_points, expm_multiply_calls):
    # 65 points take the stepper; 21 are forced onto expm_multiply by a cap
    # that no block fits under
    if expm_multiply_calls:
        monkeypatch.setattr("vactrap.evolve._STEPPER_MAX_SIZE", 0)
    calls = _count_expm_multiply(monkeypatch)
    space = FockSpace(dim=8)
    gen = build_redfield_generator(space, STABLE)
    rho0 = make_state("coherent", space, alpha=0.4)
    record = integrate(gen, rho0, (0.0, 40.0), n_points=n_points)
    assert len(calls) == expm_multiply_calls
    # the stored snapshots are Hermitian to the last bit
    assert np.abs(record.rho - record.rho.conj().transpose(0, 2, 1)).max() == 0.0
    assert np.array_equal(record.rho, record.rho.conj().transpose(0, 2, 1))
    assert np.abs(record.rho[0] - rho0.matrix).max() <= 1e-15
    # an unvalidated non-Hermitian start is replaced by its Hermitian part
    skew = np.zeros((8, 8), dtype=complex)
    skew[0, 1] = 1e-3j
    record = integrate(gen, DensityMatrix(rho0.matrix + skew, validate=False),
                       (0.0, 40.0), n_points=n_points)
    assert np.abs(record.rho[0] - rho0.matrix - (skew + skew.conj().T) / 2.0).max() <= 1e-15


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
    relabelled = Superoperator(*gen._triple, ApproximationMode.WITH_RWA)
    rho0 = make_state("coherent", space, alpha=1.0)
    with pytest.raises(PositivityBreach) as exc_info:
        integrate(relabelled, rho0, (0.0, 1.0), n_points=101)
    exc = exc_info.value
    assert exc.min_eigenvalue < POSITIVITY_FLOOR_CP
    assert 0.0 < exc.time < 1.0
    assert exc.record.times[-1] == 1.0  # full diagnostics retained


def test_non_finite_initial_array_is_refused_before_propagation():
    gen = build_lindblad_generator(FockSpace(dim=4), STABLE)
    mat = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    mat[1, 2] = mat[2, 1] = np.nan
    with pytest.raises(DimensionMismatch, match="non-finite"):
        integrate(gen, mat, (0.0, 1.0), n_points=11)


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


def test_breach_exception_carries_the_full_record():
    # a breach at t = 0 still hands over every snapshot through the exception
    space = FockSpace(dim=16)
    gen = build_redfield_generator(space, STABLE)
    rho0 = make_state("thermal", space, nbar=1.0)
    with pytest.raises(GuardBandOverflow) as exc_info:
        integrate(gen, rho0, (0.0, 1.0), n_points=11)
    record = exc_info.value.record
    assert exc_info.value.time == 0.0
    assert len(record.states) == 11
    head = record.states[:2]
    assert len(head) == 2 and np.array_equal(head[1].matrix, record.rho[1])
    assert record.times[-1] == 1.0
    assert record.guard_pop[0] > GUARD_BAND_LIMIT
    # the beyond-RWA record computes min_eig when it is first read
    for k in (0, -1):
        assert abs(record.min_eig[k] - np.linalg.eigvalsh(record.rho[k]).min()) <= 1e-14


@pytest.mark.parametrize(
    "build, gated",
    [(build_redfield_generator, False), (build_lindblad_generator, True)],
    ids=["beyond-rwa", "with-rwa"],
)
def test_min_eig_is_computed_where_it_is_gated_or_read(monkeypatch, build, gated):
    # integrate computes min_eig only to gate positivity (WITH_RWA); a
    # beyond-RWA record computes it on first read, and either keeps it
    space = FockSpace(dim=20)
    rho0 = make_state("coherent", space, alpha=1.0)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr("numpy.linalg.eigvalsh", counting_eigvalsh)
    record = integrate(build(space, STABLE), rho0, (0.0, 50.0), n_points=1001)
    batches = math.ceil(1001 / _CHUNK)
    assert len(calls) == (batches if gated else 0)
    min_eig = record.min_eig
    assert len(calls) == batches > 1
    assert sum(calls) == 1001
    assert record.min_eig is min_eig
    assert len(calls) == batches


def test_blockwise_diagnostics_match_per_snapshot_formulas():
    # 1001 dim-20 snapshots span several diagnostics blocks; min_eig is
    # computed on first read beyond the RWA and inside integrate with it
    space = FockSpace(dim=20)
    rho0 = make_state("coherent", space, alpha=1.0)
    for build in (build_redfield_generator, build_lindblad_generator):
        record = integrate(build(space, STABLE), rho0, (0.0, 50.0), n_points=1001)
        assert record.rho.shape == (1001, 20, 20)
        for k, mat in enumerate(record.rho):
            herm = (mat + mat.conj().T) / 2.0
            assert abs(record.trace_dev[k] - abs(np.trace(mat) - 1.0)) <= 1e-14
            assert np.array_equal(mat, mat.conj().T)
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


@pytest.mark.parametrize(
    "entries, breach, opening",
    [
        # each case also breaches every limit reported after its own
        ({0: 2.0, 1: -1e-6, 7: 2e-6}, PositivityBreach, "state eigenvalue"),
        ({0: 2.0, 7: 2e-6}, GuardBandOverflow, "guard-band population"),
        ({0: 2.0}, ToleranceFailure, "Hilbert-Schmidt norm 3.000e+00 above 2.0 at t = 0.0;"),
        ({0: 1e-9}, ToleranceFailure, "trace drift 1.000e-09 above 1e-10 at t = 0.0;"),
    ],
    ids=["positivity", "guard-band", "norm", "trace"],
)
def test_limits_breached_at_once_report_positivity_then_guard_band_then_trace(
    entries, breach, opening
):
    # the norm is reported between the guard band and the trace
    space = FockSpace(dim=8)
    gen = build_lindblad_generator(space, STABLE)
    mat = np.zeros((8, 8), dtype=complex)
    mat[0, 0] = 1.0
    for level, weight in entries.items():
        mat[level, level] += weight
    assert abs(np.trace(mat) - 1.0) > TRACE_DEV_LIMIT
    assert (np.linalg.norm(mat) > NORM_LIMIT) == (entries[0] > 1.0)
    with pytest.raises(breach) as exc_info:
        integrate(gen, DensityMatrix(mat, validate=False), (0.0, 1.0), n_points=11)
    message = str(exc_info.value)
    assert message.startswith(opening)
    assert exc_info.value.record.times[-1] == 1.0
    if breach is ToleranceFailure:
        assert "spectral_abscissa" in message
        assert ("growing mode" in message) == (entries[0] > 1.0)
        assert ("rounding" in message) == (entries[0] < 1.0)
    else:
        assert exc_info.value.time == 0.0


def test_integrate_argument_validation():
    space = FockSpace(dim=6)
    gen = build_lindblad_generator(space, STABLE)
    rho0 = make_state("fock", space, n=0)
    # finite ends whose distance overflows are refused too
    for t_span in ((1.0, 1.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ConfigurationError, match="t_span"):
            integrate(gen, rho0, t_span)
    with pytest.raises(ConfigurationError, match="n_points must be at least 2, got 1"):
        integrate(gen, rho0, (0.0, 1.0), n_points=1)
    with pytest.raises(DimensionMismatch):
        integrate(gen, make_state("fock", FockSpace(dim=8), n=0), (0.0, 1.0))


# expm_multiply, forced by a cap that no block fits under, then the stepper
@pytest.mark.parametrize("n_points, cap", [(5, 0), (101, _STEPPER_MAX_SIZE)], ids=["5", "101"])
def test_overflowing_generator_raises_tolerance_failure(monkeypatch, n_points, cap):
    monkeypatch.setattr("vactrap.evolve._STEPPER_MAX_SIZE", cap)
    space = FockSpace(dim=4)
    gen = build_lindblad_generator(space, STABLE)
    left, right, jumps = gen._triple
    unstable = Superoperator(left + 500.0 * np.eye(4), right + 500.0 * np.eye(4), jumps, gen.mode)
    with pytest.raises(ToleranceFailure, match="not finite"):
        integrate(unstable, make_state("fock", space, n=0), (0.0, 1.0), n_points=n_points)


def test_grid_past_physical_memory_is_refused(monkeypatch):
    # the grid's peak, 8 d**2 + 16 d + 33 bytes a point, is checked against
    # physical memory before the grid is made; 16 pages of 1 KiB hold 72
    # points at dim 4 and refuse 73
    space = FockSpace(dim=4)
    gen = build_lindblad_generator(space, STABLE)
    rho0 = make_state("fock", space, n=0)
    monkeypatch.setattr("vactrap.errors.os.sysconf", lambda name: {"SC_PAGE_SIZE": 1024}.get(name, 16))
    assert len(integrate(gen, rho0, (0.0, 1.0), n_points=72).times) == 72
    with pytest.raises(GuardExceeded, match="a grid of 73 points on 4 levels .* physical memory"):
        integrate(gen, rho0, (0.0, 1.0), n_points=73)


# ------------------------------------------------------------------ window


def test_validity_window_for_reference_trap():
    rates = build_rate_set(load_config("sec-reference"))
    t = validity_window(rates)
    assert t == pytest.approx(0.035644301694089886, rel=1e-12)
    # the horizon satisfies its defining quadratic
    d, g = rates.delta_minus, rates.gamma
    assert abs(4.0 * d * d * t * t - 2.0 * g * t - 1.0) < 1e-12


def test_validity_window_unbounded_when_shift_vanishes():
    assert validity_window(RateSet.scaled(1e-2, 5e-3, 0.0)) == math.inf


def test_validity_window_zero_damping_limit():
    # 1 / (2 |D|)
    assert validity_window(RateSet.scaled(0.0, 0.0, 0.5)) == pytest.approx(1.0, rel=1e-14)


def test_validity_window_when_the_shift_squared_underflows():
    # 4 D^2 is 0.0 at D = 1e-170; the root keeps the formula's limits
    assert validity_window(RateSet.scaled(1e-2, 0.0, 1e-170)) == math.inf
    t_max = validity_window(RateSet.scaled(0.0, 0.0, 1e-170))
    assert t_max == pytest.approx(5e169, rel=1e-14)  # 1 / (2 |D|)


def test_gaussian_check_flips_exactly_at_the_horizon():
    rates = build_rate_set(load_config("sec-reference"))
    t_max = validity_window(rates)
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


def test_record_to_csv_layout(capsys):
    argv = ["evolve", "--mode", "with-rwa", "--dim", "16", "--t-end", "1", "--points", "3"]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "time,trace_dev,herm_dev,min_eig,guard_pop,x,p,n,witness"
    assert len(lines) == 4
    first = [float(cell) for cell in lines[1].split(",")]
    assert first[0] == 0.0
    # the moments of the initial coherent state (alpha = 1), column by column
    space = FockSpace(dim=16)
    start = make_state("coherent", space, alpha=1.0)
    ops = build_fock_operators(space)
    for value, op in zip(first[5:], (ops.x, ops.p, ops.n, ops.witness)):
        assert value == pytest.approx(expectation(start, op), abs=1e-12)
