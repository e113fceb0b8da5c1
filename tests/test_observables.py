"""Initial states, expectation values, analytic solutions, fitting helpers."""
import math

import numpy as np
import pytest

from vactrap import observables
from vactrap.cli import run_cli
from vactrap.errors import DimensionMismatch, NumericalGuard, TruncationRisk
from vactrap.evolve import _CHUNK, EvolutionRecord, integrate
from vactrap.liouville import (
    FockSpace,
    _act,
    _pack,
    _unpack,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
)
from vactrap.observables import (
    amplitude_peaks,
    damped_oscillator_solution,
    first_moment_rhs_check,
    fit_phase_slope,
    make_state,
    series_from_record,
    witness_sum,
)
from vactrap.rates import RateSet

from conftest import expectation, unvec, vec

STABLE = RateSet.scaled(1e-2, 5e-3, 8e-3)


def _series(op_name, *states, space=None):
    """``series_from_record``'s values of ``op_name`` on a record whose
    snapshots are ``states``, one value per state."""
    w = np.array([_pack(getattr(state, "matrix", state)) for state in states])
    n = len(w)
    record = EvolutionRecord(
        times=np.arange(n, dtype=float), w=w, trace_dev=np.zeros(n), guard_pop=np.zeros(n)
    )
    return series_from_record(record, op_name, space).values


# ------------------------------------------------------------------- states


def test_fock_state_is_projector():
    space = FockSpace(dim=8)
    rho = make_state("fock", space, n=3)
    assert rho.matrix[3, 3] == 1.0
    assert np.count_nonzero(rho.matrix) == 1


def test_coherent_state_moments_match_direct_sums():
    space = FockSpace(dim=16)
    alpha = 1.0
    rho = make_state("coherent", space, alpha=alpha)
    # independent truncated sums, built from scratch
    amps = np.array(
        [
            math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(16)
        ]
    )
    amps = amps / np.linalg.norm(amps)
    n_direct = float(np.sum(np.arange(16) * amps**2))
    (n_mean,) = _series("n", rho)
    assert n_mean == pytest.approx(n_direct, abs=1e-14)
    assert n_mean == pytest.approx(1.0, abs=1e-12)  # tail is negligible
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)


def test_coherent_zero_is_the_vacuum():
    rho = make_state("coherent", FockSpace(dim=5), alpha=0.0)
    assert rho.matrix[0, 0] == 1.0


def test_thermal_state_geometric_weights():
    space = FockSpace(dim=32)
    nbar = 0.5
    rho = make_state("thermal", space, nbar=nbar)
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(32)
    weights = weights / weights.sum()
    assert np.allclose(np.diag(rho.matrix).real, weights, atol=1e-15)
    assert _series("n", rho)[0] == pytest.approx(
        float(np.sum(np.arange(32) * weights)), abs=1e-14
    )


def test_make_state_truncation_guards():
    space = FockSpace(dim=8)
    with pytest.raises(TruncationRisk):
        make_state("coherent", space, alpha=1.5)  # |alpha|^2 = 2.25 > 2
    with pytest.raises(TruncationRisk):
        make_state("thermal", space, nbar=2.5)
    with pytest.raises(TruncationRisk):
        make_state("fock", space, n=6)  # guard band starts at dim-2


def test_make_state_rejects_bad_parameters():
    space = FockSpace(dim=8)
    with pytest.raises(DimensionMismatch):
        make_state("squeezed", space, r=1.0)
    with pytest.raises(DimensionMismatch):
        make_state("fock", space, n=-1)
    with pytest.raises(DimensionMismatch):
        make_state("fock", space, n=9)
    with pytest.raises(DimensionMismatch):
        make_state("thermal", space)
    with pytest.raises(DimensionMismatch):
        make_state("thermal", space, nbar=-0.1)
    with pytest.raises(DimensionMismatch, match="finite"):
        make_state("thermal", space, nbar=math.nan)
    with pytest.raises(DimensionMismatch, match="finite"):
        make_state("coherent", space, alpha=complex(0.5, math.nan))
    with pytest.raises(DimensionMismatch):
        make_state("thermal", space, beta=0.0)
    with pytest.raises(DimensionMismatch):
        make_state("fock", space, n=1, alpha=2.0)
    with pytest.raises(DimensionMismatch, match="fock state needs n="):
        make_state("fock", space)
    with pytest.raises(DimensionMismatch, match="coherent state needs alpha="):
        make_state("coherent", space)
    for n in (2.0, 1.7, math.nan, math.inf):
        with pytest.raises(DimensionMismatch, match="integer"):
            make_state("fock", space, n=n)
    level = make_state("fock", space, n=np.int64(2)).matrix
    assert np.array_equal(level, make_state("fock", space, n=2).matrix)
    assert level[2, 2] == 1.0


# ------------------------------------------------------------ expectations


def test_quadrature_expectations_of_coherent_state():
    space = FockSpace(dim=16)  # scaled units: hbar = m = w = 1
    alpha = 1.0
    rho = make_state("coherent", space, alpha=alpha)
    # <x> = sqrt(2 hbar / m w) Re alpha, <p> = sqrt(2 hbar m w) Im alpha
    assert _series("x", rho, space=space)[0] == pytest.approx(math.sqrt(2.0) * alpha, rel=1e-10)
    assert _series("p", rho, space=space)[0] == pytest.approx(0.0, abs=1e-12)


def test_series_from_record_validation():
    space = FockSpace(dim=6)
    rho = make_state("fock", space, n=1)
    with pytest.raises(DimensionMismatch, match="unknown observable 'y'"):
        _series("y", rho, space=space)
    with pytest.raises(DimensionMismatch, match="state dim 6 does not match space dim 8"):
        _series("x", rho, space=FockSpace(dim=8))


def test_witness_vanishes_on_diagonal_states(rng):
    weights = rng.random(10)
    weights /= weights.sum()
    sigma = np.diag(weights.astype(complex))
    assert witness_sum(sigma) == 0.0
    assert _series("X", sigma)[0] == 0.0


def test_witness_trace_and_ladder_sum_agree(rng, herm_factory):
    witness = build_fock_operators(FockSpace(dim=9)).witness
    sigmas = []
    for _ in range(20):
        h = herm_factory(9)
        sigma = h @ h  # positive, nontrivial coherences
        sigmas.append(sigma / np.trace(sigma).real)
    for value, sigma in zip(_series("X", *sigmas), sigmas):
        assert value == pytest.approx(witness_sum(sigma), abs=1e-12)
        assert value == pytest.approx(expectation(sigma, witness), abs=1e-12)


def test_witness_sum_on_a_stack_matches_each_state(herm_factory):
    stack = np.array([h @ h for h in (herm_factory(9) for _ in range(5))])
    assert np.array_equal(witness_sum(stack), [witness_sum(s) for s in stack])


def test_witness_disagreement_is_a_numerical_guard(monkeypatch, herm_factory, capsys):
    # a packed trace that the ladder sum does not confirm is a numerical
    # fault, exit 2, not an input error
    monkeypatch.setattr(observables, "witness_sum", lambda state: witness_sum(state) + 1e-6)
    h = herm_factory(9)
    sigma = h @ h
    with pytest.raises(NumericalGuard, match="ladder sum"):
        _series("X", sigma / np.trace(sigma).real)
    argv = ["witness", "--dim", "10", "--nbar", "0.2", "--t-end", "2", "--points", "21"]
    assert run_cli(argv) == 2
    assert "numerical guard: witness trace disagrees" in capsys.readouterr().err


def test_series_from_record():
    space = FockSpace(dim=8)
    gen = build_lindblad_generator(space, STABLE)
    record = integrate(gen, make_state("fock", space, n=1), (0.0, 2.0), n_points=5)
    series = series_from_record(record, "n", space)
    assert series.label == "n"
    assert series.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(series.values) < 0.0)  # pure decay


@pytest.mark.parametrize(
    "build, cap",
    [
        (build_redfield_generator, None),
        (build_lindblad_generator, None),
        (build_xp_generator, None),
        # expm_multiply, forced by a cap that no block fits under
        (build_redfield_generator, 0),
    ],
    ids=["redfield", "lindblad", "xp", "redfield-expm-multiply"],
)
def test_series_match_per_snapshot_traces(monkeypatch, build, cap):
    # the real functionals w @ (Re vec A + Im vec A) of the stored rows
    # against the trace of each unpacked snapshot; only the summation
    # differs, so agreement is at rounding level
    if cap is not None:
        monkeypatch.setattr("vactrap.evolve._STEPPER_MAX_SIZE", cap)
    space = FockSpace(dim=12)
    gen = build(space, STABLE)
    record = integrate(gen, make_state("coherent", space, alpha=1.0), (0.0, 5.0), n_points=51)
    ops = build_fock_operators(space)
    for name, op in (("x", ops.x), ("p", ops.p), ("n", ops.n), ("X", ops.witness)):
        loop = np.array([expectation(mat, op) for mat in record.rho])
        values = series_from_record(record, name, space).values
        assert np.max(np.abs(values - loop)) <= 1e-13


def test_series_and_min_eig_leave_rho_packed(monkeypatch):
    # the series read the real rows, and min_eig unpacks them one chunk at a
    # time, so no complex trajectory is formed
    sizes = []

    def counting_unpack(rows):
        sizes.append(len(rows))
        return _unpack(rows)

    monkeypatch.setattr("vactrap.evolve._unpack", counting_unpack)
    space = FockSpace(dim=12)
    gen = build_redfield_generator(space, STABLE)
    record = integrate(gen, make_state("coherent", space, alpha=1.0), (0.0, 50.0), n_points=201)
    for name in ("x", "p", "n", "X"):
        series_from_record(record, name, space)
    assert sizes == []
    assert record.min_eig.shape == (201,)
    assert "rho" not in vars(record)
    assert sum(sizes) == 201 and max(sizes) <= _CHUNK


# ------------------------------------------------- damped-oscillator roots


def test_oscillator_roots_satisfy_characteristic_polynomial():
    sol = damped_oscillator_solution(x0=1.0, gamma=0.3, omega_c=1.0, delta_omega=0.02)
    for lam in (sol.lambda_plus, sol.lambda_minus):
        residual = lam * lam + sol.gamma * lam + (1.0 + 2.0 * 0.02)
        assert abs(residual) < 1e-12
    assert sol.omega_eff == pytest.approx(1.02)


def test_first_moment_identities_are_exact():
    assert first_moment_rhs_check(STABLE, dim=16) < 1e-12
    assert first_moment_rhs_check(RateSet.scaled(0.0, 5e-3, 8e-3)) < 1e-12
    assert first_moment_rhs_check(RateSet.scaled(0.05, 1e-2, 2e-3), dim=12) < 1e-12
    # G = 0 and dw = -1/2 make the expected <x> rate vanish: the residual
    # is then absolute
    assert first_moment_rhs_check(RateSet.scaled(0.0, 0.5, 0.0), dim=12) < 1e-12


def test_first_moment_adjoint_is_the_dense_adjoint(monkeypatch, kron_sum):
    # the adjoint first_moment_rhs_check applies to x and p, read from the
    # generator's triple, is conj(L).T applied to vec(x) and vec(p), and no
    # dense L is assembled for it
    built, applied = [], []

    def build(space, rates):
        built.append(build_redfield_generator(space, rates))
        return built[-1]

    def act(*args):
        applied.append((args[-1], _act(*args)))
        return applied[-1][1]

    monkeypatch.setattr("vactrap.observables.build_redfield_generator", build)
    monkeypatch.setattr("vactrap.observables._act", act)
    assert first_moment_rhs_check(STABLE, dim=16) < 1e-12
    (gen,) = built
    assert len(applied) == 2 and "matrix" not in vars(gen)
    adjoint = kron_sum(*gen._triple).conj().T
    for op, image in applied:
        want = unvec(adjoint @ vec(op), gen.dim)
        assert np.abs(image - want).max() <= 1e-14 * np.abs(want).max()


# ------------------------------------------------------------------ fitting


def test_fit_phase_slope_recovers_synthetic_frequency():
    omega, gamma = 1.0031, 0.01
    times = np.linspace(0.0, 200.0, 4001)
    x = np.exp(-gamma * times / 2.0) * np.cos(omega * times)
    p = -np.exp(-gamma * times / 2.0) * np.sin(omega * times)  # m = w_ref = 1
    fitted = fit_phase_slope(times, x, p, mass=1.0, omega_ref=1.0)
    assert fitted == pytest.approx(omega, rel=1e-12)


def test_amplitude_peaks_on_pure_cosine():
    times = np.linspace(0.0, 20.0, 2001)
    values = np.cos(times)
    peak_t, peak_v = amplitude_peaks(times, values)
    expected = np.arange(7) * math.pi  # |cos| peaks at k pi within [0, 20]
    interior = expected[expected > times[0]]
    assert len(peak_t) == len(interior)
    assert np.max(np.abs(peak_t - interior)) < 1e-3
    assert np.max(np.abs(peak_v - 1.0)) < 1e-6


def test_amplitude_peaks_on_damped_cosine():
    # the true maxima of e^{-G t/2} |cos t| sit below the envelope by
    # ~ G^2/8 (the cosine factor at the tilted vertex), so the comparison
    # tolerance must dominate that: G^2/8 = 5e-5 here, gate 1e-4
    gamma = 0.02
    times = np.linspace(0.0, 40.0, 4001)
    values = np.exp(-gamma * times / 2.0) * np.cos(times)
    peak_t, peak_v = amplitude_peaks(times, values)
    envelope = np.exp(-gamma * peak_t / 2.0)
    assert np.max(np.abs(peak_v - envelope)) < 1e-4


def _amplitude_peaks_loop(times, values):
    """The scalar loop that ``amplitude_peaks`` replaced, kept as its reference."""
    t = np.asarray(times, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    peak_t, peak_v = [], []
    for k in range(1, len(v) - 1):
        if v[k] >= v[k - 1] and v[k] > v[k + 1] and v[k] > 0.0:
            denom = v[k - 1] - 2.0 * v[k] + v[k + 1]
            if denom == 0.0:
                peak_t.append(t[k])
                peak_v.append(v[k])
                continue
            shift = 0.5 * (v[k - 1] - v[k + 1]) / denom
            dt = t[k + 1] - t[k]
            peak_t.append(t[k] + shift * dt)
            peak_v.append(v[k] - 0.25 * (v[k - 1] - v[k + 1]) * shift)
    return np.asarray(peak_t), np.asarray(peak_v)


# plateaus of two and three samples (only the last sample of a plateau may
# peak), a rising plateau (no peak), an infinite sample, a curvature that
# overflows to -inf, subnormal samples and signs folded by |values|
_HAND_BUILT = [0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 3.0, 3.0, 4.0,
               1e308, 1.5e308, 1e308, 0.0, np.inf, 1.0, 5e-324, 1e-310, 5e-324, 0.0,
               -4.0, -4.0, 1.0, -0.0]


@pytest.mark.parametrize("case", ["damped-cosine", "noise", "rounded-noise", "hand-built"])
def test_amplitude_peaks_matches_the_scalar_loop(case):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 300.0, 4001)
    if case == "damped-cosine":
        values = np.exp(-0.01 * times) * np.cos(1.003 * times)
    elif case == "noise":
        values = rng.standard_normal(times.size)
    elif case == "rounded-noise":
        values = np.round(rng.standard_normal(times.size), 1)
    else:
        values = np.array(_HAND_BUILT)
        times = 0.5 * np.arange(values.size)
    with np.errstate(over="ignore"):
        got = amplitude_peaks(times, values)
        want = _amplitude_peaks_loop(times, values)
    assert len(want[0]) > 0
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_amplitude_peaks_tie_rule():
    # a two-sample plateau peaks once, at its midpoint; a rising one never
    peak_t, peak_v = amplitude_peaks(np.arange(6.0), [0.0, 1.0, 1.0, 0.5, 0.5, 0.7])
    assert peak_t.tolist() == [1.5]
    assert peak_v.tolist() == [1.0625]
