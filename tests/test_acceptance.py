"""Acceptance gate: one test per headline claim, tolerances pinned up front.

Each test states a quoted or derived reference value and the gate it must
meet.  A failure here is reported with the computed numbers and enough
analysis to judge whether the defect is in the code or in the quoted
value; the terminal summary prints one PASS/FAIL line per criterion.
"""
import math
import time

import numpy as np
import pytest

from vactrap.bath import (
    bath_brute_force,
    discrete_golden_rule,
    discrete_second_order_shift,
    make_flat_bath,
)
from vactrap.evolve import integrate
from vactrap.liouville import (
    FockSpace,
    build_2d_generator,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
)
from vactrap.observables import (
    amplitude_peaks,
    damped_oscillator_solution,
    fit_phase_slope,
    make_state,
    series_from_record,
)
from vactrap.params import CODATA_2022, ELECTRON, load_config
from vactrap.perturbation import pt_frequency_shift_renormalized
from vactrap.rates import (
    RateSet,
    build_rate_set,
    damping_rate,
    free_particle_shift,
    gaussian_positivity_check,
    level_shifts_renormalized,
    validity_window,
)
from vactrap.sweeps import (
    bfield_sweep,
    midpoint_exponent,
    rwa_exponent_analytic,
    table1,
    validity_report,
)

from conftest import sigma02_rhs, ulp2

REFERENCE = load_config("sec-reference")
STABLE = RateSet.scaled(1e-2, 5e-3, 8e-3)


def test_criterion_01_shift_table():
    """Six relative shifts match the quoted 3x2 grid to 2 significant figures."""
    start = time.perf_counter()
    report = table1(REFERENCE)
    elapsed = time.perf_counter() - start
    quoted_with_rwa = (-1.1e-11, -2.0e-11, -2.0e-11)
    quoted_beyond = (9.4e-15, 9.6e-17, 9.2e-17)
    for label, got, quoted in zip(
        report.cutoff_labels, report.with_rwa, quoted_with_rwa
    ):
        assert got == pytest.approx(quoted, abs=ulp2(quoted)), (
            f"RWA column, {label}: computed {got!r} vs quoted {quoted!r} "
            f"(gate: 1 unit in the 2nd significant digit)"
        )
    for label, got, quoted in zip(report.cutoff_labels, report.beyond_rwa, quoted_beyond):
        assert got == pytest.approx(quoted, abs=ulp2(quoted)), (
            f"beyond-RWA column, {label}: computed {got!r} vs quoted {quoted!r} "
            f"(gate: 1 unit in the 2nd significant digit)"
        )
    assert elapsed < 1.0, f"closed-form table took {elapsed:.2f} s (gate 1 s)"


def test_criterion_02_positivity_horizon():
    """Gaussian positivity horizon at the reference trap vs the quoted 0.04 s.

    KNOWN RED: the computed horizon is 0.0356443 s, 10.9% below the quote,
    and the 5% gate pinned for this check cannot absorb that.  The computed
    value is defended two independent ways inside this test, so the
    discrepancy points at the quote's precision (one significant figure),
    not at the rate pipeline.
    """
    rates = build_rate_set(REFERENCE)
    t_max = validity_window(rates)
    d, g = rates.delta_minus, rates.gamma

    # defense 1: the closed form satisfies its own defining quadratic
    residual = abs(4.0 * d * d * t_max * t_max - 2.0 * g * t_max - 1.0)
    assert residual < 1e-12, f"horizon fails its defining quadratic: {residual:.2e}"

    # defense 2: an independent bisection of the positivity predicate lands
    # on the same point
    lo, hi = t_max / 4.0, t_max * 4.0
    assert gaussian_positivity_check(rates, lo)
    assert not gaussian_positivity_check(rates, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_positivity_check(rates, mid):
            lo = mid
        else:
            hi = mid
    assert abs(lo - t_max) < 1e-9 * t_max

    quoted = 0.04
    deviation = abs(t_max - quoted) / quoted
    assert deviation <= 0.05, (
        f"horizon {t_max!r} s vs quoted {quoted} s: deviation {deviation:.1%} "
        f"exceeds the 5% gate. The computed value satisfies its defining "
        f"quadratic to {residual:.1e} and matches an independent bisection of "
        f"the positivity predicate to {abs(lo - t_max):.1e} s, with inputs "
        f"gamma = {g!r} 1/s and renormalized shift {d!r} 1/s that are "
        f"themselves pinned by closed-form tests; the quote is consistent "
        f"with the computed horizon rounded to one significant figure."
    )


def test_criterion_03_long_wavelength_bound():
    """The dipole-form validity bound at the reference trap is 6.1e15 Hz."""
    report = validity_report(REFERENCE)
    quoted = 6.1e15
    assert report.lwa_bound_hz == pytest.approx(quoted, rel=0.02), (
        f"bound {report.lwa_bound_hz!r} Hz vs quoted {quoted!r} Hz "
        f"(gate 2%; measured deviation "
        f"{abs(report.lwa_bound_hz - quoted) / quoted:.3%})"
    )
    assert report.cutoff_within_lwa, "reference cutoff must sit at/below the bound"


def test_criterion_04_field_scaling_exponents():
    """Shift-vs-field exponents: 3, 2, 5/2 beyond the RWA; log-corrected RWA
    slopes match the closed-form derivative."""
    start = time.perf_counter()
    targets = {"omega1": 3.0, "omega2": 2.0, "omega3": 2.5}
    for kind, target in targets.items():
        sweep = bfield_sweep(REFERENCE, (1.0, 10.0), 65, mode="beyond-rwa", cutoff=kind)
        got = midpoint_exponent(sweep)
        assert got == pytest.approx(target, abs=0.01), (
            f"beyond-RWA exponent for {kind}: {got!r} vs {target} (gate 0.01)"
        )
    for kind in targets:
        sweep = bfield_sweep(REFERENCE, (1.0, 10.0), 65, mode="with-rwa", cutoff=kind)
        got = midpoint_exponent(sweep)
        b_mid = sweep.b_values[len(sweep.b_values) // 2]
        analytic = rwa_exponent_analytic(REFERENCE, b_mid, cutoff=kind)
        assert got == pytest.approx(analytic, rel=0.01), (
            f"RWA exponent for {kind}: sweep {got!r} vs closed form {analytic!r} "
            f"(gate 1%)"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exponent sweeps took {elapsed:.2f} s (gate 1 s)"


def test_criterion_05a_two_quantum_bridge(rng):
    """The written-out two-quantum coherence equation is the generator's own
    (0, 2) row, on arbitrary states."""
    space = FockSpace(dim=9)
    gen = build_redfield_generator(space, STABLE)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        sigma = (a + a.conj().T) / 2.0
        sigma /= np.trace(sigma).real
        expected = gen.apply(sigma)[0, 2]
        got = sigma02_rhs(sigma, STABLE)
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    assert worst < 1e-12, f"worst relative row mismatch {worst:.2e} (gate 1e-12)"


def test_criterion_05b_quadrature_form():
    """The generator assembled from x/p commutator algebra equals the ladder
    form entrywise."""
    space = FockSpace(dim=20)
    g_xp = build_xp_generator(space, STABLE).matrix
    g_b = build_redfield_generator(space, STABLE).matrix
    scale = np.max(np.abs(g_b))
    mismatch = np.max(np.abs(g_xp - g_b)) / scale
    assert mismatch < 1e-10, f"quadrature-vs-ladder mismatch {mismatch:.2e} (gate 1e-10)"


def test_criterion_05c_zero_shift_reduction(herm_factory):
    """Setting both vacuum shifts to zero leaves the beyond-RWA generator
    equal to the excitation-conserving one plus the two-quantum damping
    blocks, whose weight Gamma/2 does not depend on the shifts.

    The two-quantum channels enter with weights (Gamma/2 +- i * shifts);
    zeroing the shifts removes only the imaginary parts.  What is left is
    the reduction checked here:

        L_beyond(s) - L_RWA(s) = -(Gamma/2) (b s b - b^2 s)
                                 -(Gamma/2) (b+ s b+ - s b+^2),

    with the blocks built from plain matrix products on an explicit ladder.
    Only the rotating-wave approximation removes them; on populations the
    two generators act identically.
    """
    gamma = 1e-2
    space = FockSpace(dim=6)
    zero_shift = RateSet.scaled(gamma, 0.0, 0.0)
    gen_b = build_redfield_generator(space, zero_shift)
    gen_l = build_lindblad_generator(space, zero_shift)
    diff = gen_b.matrix - gen_l.matrix

    # the residual is structural, not numerical noise: its magnitude is
    # Gamma/2 times the largest product of raising elements in the space,
    # sqrt(dim-1) * sqrt(dim-1), reached on the topmost coherence pair
    expected_residual = 0.5 * gamma * (space.dim - 1)
    assert np.max(np.abs(diff)) == pytest.approx(expected_residual, rel=1e-12)

    # and it lives only on the two-quantum lines: on populations the two
    # generators act identically
    weights = np.linspace(0.4, 0.05, 6)
    weights /= weights.sum()
    sigma = np.diag(weights.astype(complex))
    diag_gap = np.max(
        np.abs(np.diag(gen_b.apply(sigma)) - np.diag(gen_l.apply(sigma)))
    )
    assert diag_gap < 1e-15

    # the whole residual, on random Hermitian states, is exactly the two
    # Gamma/2 blocks: b[n-1, n] = sqrt(n), written out by hand
    b = np.diag(np.sqrt(np.arange(1.0, space.dim)), k=1).astype(complex)
    bd = b.conj().T
    scale = np.max(np.abs(gen_l.matrix))
    mismatch = 0.0
    for _ in range(5):
        s = herm_factory(space.dim)
        blocks = -0.5 * gamma * (b @ s @ b - b @ b @ s) - 0.5 * gamma * (
            bd @ s @ bd - s @ bd @ bd
        )
        residual = gen_b.apply(s) - gen_l.apply(s)
        mismatch = max(mismatch, float(np.max(np.abs(residual - blocks))))
    assert mismatch <= 1e-12 * scale, (
        f"zeroed-shift beyond-RWA generator minus the excitation-conserving "
        f"generator differs from the two Gamma/2 two-quantum damping blocks "
        f"by {mismatch!r} (worst entry over 5 random Hermitian states; gate "
        f"1e-12 * {scale!r}).  Its largest matrix entry is "
        f"{np.max(np.abs(diff))!r} against Gamma/2 * (dim-1) = "
        f"{expected_residual!r}; diagonal gap {diag_gap:.1e}."
    )


def test_criterion_06_damped_cosine_dynamics():
    """Scaled-regime mean position follows the damped cosine with the shifted
    frequency; the completely positive branch reproduces exponential decay."""
    space = FockSpace(dim=20)
    gen = build_redfield_generator(space, STABLE)
    state = make_state("coherent", space, alpha=1.0)
    record = integrate(gen, state, (0.0, 300.0), n_points=4001)
    x = series_from_record(record, "x", space)
    p = series_from_record(record, "p", space)

    x0 = math.sqrt(2.0)
    peak_t, peak_v = amplitude_peaks(record.times, x.values)
    envelope = x0 * np.exp(-STABLE.gamma * peak_t / 2.0)
    env_dev = float(np.max(np.abs(peak_v - envelope) / envelope))
    assert env_dev < 0.01, (
        f"worst envelope deviation {env_dev:.2e} over {len(peak_t)} peaks "
        f"(gate 1%)"
    )

    fitted = fit_phase_slope(record.times, x.values, p.values, mass=1.0, omega_ref=1.0)
    naive = 1.0 + (STABLE.delta_minus - STABLE.delta_plus)
    sol = damped_oscillator_solution(
        x0, STABLE.gamma, 1.0, STABLE.delta_minus - STABLE.delta_plus
    )
    exact = float(sol.lambda_plus.imag)
    assert abs(fitted - naive) <= 1.5e-4, (
        f"fitted frequency {fitted!r} vs shifted trap frequency {naive!r} "
        f"(gate 1.5e-4)"
    )
    assert abs(fitted - exact) <= 3e-6, (
        f"fitted frequency {fitted!r} vs exact damped root {exact!r} (gate 3e-6)"
    )

    # completely positive branch: one-quantum survival is a pure exponential
    space8 = FockSpace(dim=8)
    rwa_rates = RateSet.scaled(0.5, 5e-3, 8e-3)
    lind = build_lindblad_generator(space8, rwa_rates)
    rec = integrate(lind, make_state("fock", space8, n=1), (0.0, 2.0), n_points=21)
    survival = rec.states[-1].matrix[1, 1].real
    gap = abs(survival - math.exp(-1.0))
    assert gap <= 1e-8, f"one-quantum survival off by {gap:.2e} (gate 1e-8)"


def test_criterion_07_witness_contrast():
    """From a thermal (diagonal) start the two-quantum witness grows under the
    beyond-RWA generator and stays at zero under the RWA generator."""
    space = FockSpace(dim=24)
    state = make_state("thermal", space, nbar=1.0)
    span = (0.0, 10.0)
    beyond = integrate(
        build_redfield_generator(space, STABLE), state, span, n_points=201
    )
    rwa = integrate(
        build_lindblad_generator(space, STABLE), state, span, n_points=201
    )
    beyond_max = np.abs(series_from_record(beyond, "X", space).values).max()
    rwa_max = np.abs(series_from_record(rwa, "X", space).values).max()
    assert beyond_max > 1e-9, (
        f"beyond-RWA witness never left zero (max {beyond_max:.2e}); "
        f"two-quantum coherence generation is missing"
    )
    assert rwa_max <= 1e-10, (
        f"RWA witness reached {rwa_max:.2e} from a diagonal start "
        f"(gate 1e-10); the excitation-conserving generator must not create "
        f"two-quantum coherence"
    )


def test_criterion_08_perturbation_cross_check():
    """Independent second-order perturbation route: spacing shift is exactly
    three times the master-equation shift; free-particle pieces satisfy the
    factor-two and coupling-constant identities."""
    for omega_c in (1.0e11, 9.42e11, 5.0e12, 2.0e13):
        gamma = damping_rate(ELECTRON, omega_c)
        for ratio in (5.0, 20.0, 80.0, 320.0, 1000.0):
            omega_max = ratio * omega_c
            pt = pt_frequency_shift_renormalized(ELECTRON, omega_c, omega_max)
            dp, dm = level_shifts_renormalized(gamma, omega_c, omega_max)
            me = dm - dp
            assert pt / me == pytest.approx(3.0, rel=1e-9), (
                f"PT/ME ratio at omega_c={omega_c:.3g}, ratio={ratio}: "
                f"{pt / me!r} (gate: 3 to 1e-9)"
            )
    w_max = 3.824437515578783e16
    fp = free_particle_shift(ELECTRON, w_max)
    assert fp.delta_e_fp == 2.0 * fp.delta_e_lin, "factor-two identity broken"
    alpha = CODATA_2022.fine_structure(ELECTRON.charge)
    via_alpha = (
        (4.0 * alpha / (3.0 * math.pi))
        * CODATA_2022.hbar
        * w_max
        / (ELECTRON.mass * CODATA_2022.c**2)
    )
    assert fp.delta_e_lin == pytest.approx(via_alpha, rel=1e-11), (
        f"linear shift {fp.delta_e_lin!r} vs coupling-constant route "
        f"{via_alpha!r}"
    )


def test_criterion_09_discretized_bath_oracle():
    """Exact evolution against 64 discrete modes reproduces the discrete-sum
    golden-rule rate within 10%, within budgeted size and time."""
    start = time.perf_counter()
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    assert bath.dimension() <= 2**16, f"dimension {bath.dimension()} over budget"
    golden = discrete_golden_rule(bath)
    shift_sum = discrete_second_order_shift(bath)
    result = bath_brute_force(bath, rates_expected=(golden, shift_sum))
    elapsed = time.perf_counter() - start
    rel = abs(result.gamma_fit - golden) / golden
    assert rel < 0.10, (
        f"fitted decay {result.gamma_fit!r} vs discrete golden rule {golden!r}: "
        f"relative error {rel:.3%} (gate 10%)"
    )
    assert result.norm_drift < 1e-10, (
        f"norm drift {result.norm_drift:.2e} (gate 1e-10): evolution not unitary"
    )
    assert elapsed < 60.0, f"oracle took {elapsed:.1f} s (gate 60 s)"


def test_criterion_10_structural_invariants(herm_factory):
    """Every generator annihilates trace and preserves Hermiticity on random
    states; the positivity horizon agrees with its defining polynomial and
    with direct bisection."""
    space10 = FockSpace(dim=10)
    generators = [
        build_redfield_generator(space10, STABLE),
        build_lindblad_generator(space10, STABLE),
        build_xp_generator(space10, STABLE),
        build_2d_generator(FockSpace(dim=4), FockSpace(dim=3), STABLE),
    ]
    for gen in generators:
        dim = gen.dim
        for _ in range(25):
            sigma = herm_factory(dim)
            image = gen.apply(sigma)
            tr = abs(np.trace(image))
            herm = float(np.max(np.abs(image - image.conj().T)))
            assert tr < 1e-10, f"trace leak {tr:.2e} (mode {gen.mode}, dim {dim})"
            assert herm < 1e-10, (
                f"Hermiticity leak {herm:.2e} (mode {gen.mode}, dim {dim})"
            )

    rates = build_rate_set(REFERENCE)
    t_max = validity_window(rates)
    d, g = rates.delta_minus, rates.gamma
    poly = abs(4.0 * d * d * t_max * t_max - 2.0 * g * t_max - 1.0)
    assert poly < 1e-9, f"horizon polynomial residual {poly:.2e} (gate 1e-9)"
    lo, hi = t_max / 4.0, t_max * 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_positivity_check(rates, mid):
            lo = mid
        else:
            hi = mid
    assert abs(lo - t_max) < 1e-9 * t_max, (
        f"bisected horizon {lo!r} vs closed form {t_max!r}"
    )
