"""Brute-force discretized-bath oracle: exact evolution vs discrete-sum rates."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from vactrap.bath import (
    DIMENSION_GUARD,
    BathModel,
    _hamiltonian,
    bath_brute_force,
    discrete_golden_rule,
    discrete_second_order_shift,
    make_flat_bath,
    oracle_report_csv,
)
from vactrap.errors import DimensionMismatch, FitFailure, GuardExceeded


# ------------------------------------------------------------ construction


def test_flat_bath_coupling_matches_golden_rule_inversion():
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    dw = (5.0 - 0.2) / 63
    kappa = math.sqrt(5e-3 * dw / (2.0 * math.pi))
    assert np.allclose(bath.couplings, kappa, rtol=1e-14)
    assert discrete_golden_rule(bath) == pytest.approx(5e-3, rel=1e-12)


def test_flat_bath_needs_a_spacing():
    with pytest.raises(DimensionMismatch):
        make_flat_bath(1, 0.5, 1.5, gamma_target=1e-3)


@pytest.mark.parametrize(
    "omega_min, omega_max, gamma_target",
    [(5.0, 0.2, 5e-3), (1.0, 1.0, 5e-3), (0.2, 5.0, 0.0), (0.2, 5.0, math.inf),
     (-1.0, 0.5, 5e-3), (0.0, 0.5, 5e-3), (0.2, math.inf, 5e-3)],
)
def test_flat_bath_needs_an_ordered_band_and_a_positive_rate(
    omega_min, omega_max, gamma_target
):
    with pytest.raises(DimensionMismatch):
        make_flat_bath(8, omega_min, omega_max, gamma_target=gamma_target)


def test_bath_model_validation():
    with pytest.raises(DimensionMismatch):
        BathModel(mode_frequencies=[1.0, 2.0], couplings=[0.1])
    with pytest.raises(DimensionMismatch):
        BathModel(mode_frequencies=[1.0], couplings=[0.1], particle_levels=1)
    with pytest.raises(DimensionMismatch):
        BathModel(mode_frequencies=[1.0], couplings=[0.1], photons_per_mode=0)


def test_dimension_guard_trips_on_large_product_space():
    freqs = np.linspace(0.5, 1.5, 17)
    with pytest.raises(GuardExceeded):
        BathModel(
            mode_frequencies=freqs,
            couplings=np.full(17, 1e-3),
            counter_rotating=True,  # 2 * 2^17 states > 2^16 guard
        )


def test_dimension_both_paths():
    sector = BathModel(mode_frequencies=[0.9, 1.0, 1.1], couplings=[0.01] * 3)
    assert sector.dimension() == 5
    full = BathModel(
        mode_frequencies=[0.9, 1.1],
        couplings=[0.01] * 2,
        particle_levels=3,
        photons_per_mode=2,
        counter_rotating=True,
    )
    assert full.dimension() == 27
    assert 2 * 2**16 > DIMENSION_GUARD  # the guard is below the 17-mode case


# -------------------------------------------------------------- references


def test_second_order_shift_rejects_resonant_mode():
    bath = BathModel(mode_frequencies=[1.0, 2.0], couplings=[0.01, 0.01])
    with pytest.raises(FitFailure, match="resonance"):
        discrete_second_order_shift(bath)


def test_sector_second_order_shift_is_the_plain_mode_sum():
    # the conserving path reads the sum off the sector Hamiltonian; it must
    # be the textbook sum over the modes itself, to the last bit
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    kappa2 = bath.couplings**2
    expected = np.sum(kappa2 / (bath.omega_c - bath.mode_frequencies))
    assert discrete_second_order_shift(bath) == expected


def test_golden_rule_needs_two_modes():
    bath = BathModel(mode_frequencies=[1.3], couplings=[0.01])
    with pytest.raises(FitFailure):
        discrete_golden_rule(bath)


# ------------------------------------------------------------- brute force


def test_flat_bath_fit_reproduces_discrete_references():
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    golden = discrete_golden_rule(bath)
    shift_sum = discrete_second_order_shift(bath)
    result = bath_brute_force(bath, rates_expected=(golden, shift_sum))
    assert abs(result.gamma_fit - golden) / golden < 0.10
    assert abs(result.shift_fit - shift_sum) / abs(shift_sum) < 0.05
    assert result.norm_drift < 1e-10
    # regression freeze of the fitted values themselves
    assert result.gamma_fit == pytest.approx(0.005005450453334704, rel=1e-6)
    assert result.shift_fit == pytest.approx(-0.0012527337522664217, rel=1e-6)
    assert result.gamma_expected == golden
    assert result.shift_expected == shift_sum


def test_sector_and_product_space_paths_agree():
    # the same physical bath evolved exactly in the one-excitation sector
    # and in the full truncated product space with the complete coupling:
    # at weak coupling the counter-rotating terms move the decay rate only
    # at second order, so the two fitted rates must sit together far inside
    # the oracle's 10% gate
    kwargs = dict(duration=40.0, n_points=801)
    sector_bath = make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3)
    full_bath = make_flat_bath(8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=True)
    sector = bath_brute_force(sector_bath, **kwargs)
    full = bath_brute_force(full_bath, **kwargs)
    assert sector.norm_drift < 1e-10
    assert full.norm_drift < 1e-10
    assert abs(sector.gamma_fit - full.gamma_fit) / sector.gamma_fit < 0.02
    assert sector.gamma_fit == pytest.approx(2e-3, rel=0.05)


def test_detuned_mode_gives_pure_shift_and_honest_zero_decay():
    # one mode a full trap frequency above resonance: no energy-conserving
    # channel, so survival stays flat (the fit reports an exact 0.0 rather
    # than fabricating a tiny rate) while the phase drift reproduces the
    # second-order product-space sum
    bath = BathModel(
        mode_frequencies=[2.0],
        couplings=[0.01],
        particle_levels=3,
        photons_per_mode=2,
        counter_rotating=True,
    )
    pt2 = discrete_second_order_shift(bath)
    assert pt2 == pytest.approx(-0.00013333333333333334, rel=1e-10)
    result = bath_brute_force(
        bath, rates_expected=(0.0, pt2), duration=2000.0, n_points=4001
    )
    assert result.gamma_fit == 0.0
    assert abs(result.shift_fit - pt2) / abs(pt2) < 0.05
    assert result.norm_drift < 1e-10


def test_three_level_two_photon_observables_match_hand_built_evolution():
    # P_1 and <b> against psi+ O psi with O = |1><1| x I and b x I, where
    # psi evolves under a Hamiltonian written out from sqrt(n) ladders; the
    # superposition state reaches level 2, so this checks the sqrt(2)
    # weight of the 2 -> 1 term in <b>
    omega, kappa = 2.0, 0.01
    bath = BathModel(
        mode_frequencies=[omega],
        couplings=[kappa],
        particle_levels=3,
        photons_per_mode=2,
        counter_rotating=True,
    )
    result = bath_brute_force(bath, duration=2000.0, n_points=4001)

    b = np.diag(np.sqrt([1.0, 2.0]), 1)
    a = np.diag(np.sqrt([1.0, 2.0]), 1)
    eye = np.eye(3)
    h = (
        np.kron(b.T @ b, eye)
        + omega * np.kron(eye, a.T @ a)
        + 1j * kappa * np.kron(b - b.T, a + a.T)
    )
    excited = np.kron(np.diag([0.0, 1.0, 0.0]), eye)
    lowering = np.kron(b, eye)
    vac = np.eye(3)[0]
    psi_decay = np.kron(np.eye(3)[1], vac).astype(complex)
    psi_super = np.kron(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), vac)

    worst = 0.0
    for k in range(0, len(result.times), 10):
        step = expm(-1j * h * result.times[k])
        decay = step @ psi_decay
        sup = step @ psi_super
        worst = max(
            worst,
            abs(decay.conj() @ excited @ decay - result.excited_population[k]),
            abs(sup.conj() @ lowering @ sup - result.mean_lowering[k]),
        )
    assert worst < 1e-10


def test_trap_energies_are_exact_multiples_of_omega_c():
    # H0's trap part is level * omega_c, so |2> x |vac> sits at exactly
    # 2 omega_c (squaring the sqrt(2) ladder entry would miss by an ulp)
    bath = BathModel(
        mode_frequencies=[2.0, 3.0],
        couplings=[0.01, 0.01],
        particle_levels=3,
        counter_rotating=True,
        omega_c=1.3,
    )
    h0 = _hamiltonian(bath)[0]
    assert h0[2 * 4] == 2.0 * 1.3  # |2> x |vac>; two modes give 4 field states


@pytest.mark.parametrize("counter_rotating", [False, True])
def test_one_diagonalization_per_run(monkeypatch, counter_rotating):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    bath = make_flat_bath(
        8, 0.5, 1.5, gamma_target=2e-3, counter_rotating=counter_rotating
    )
    bath_brute_force(bath, duration=40.0, n_points=801)
    assert calls == [(bath.dimension(), bath.dimension())]


def test_resonant_single_mode_is_reported_as_rabi_not_decay():
    bath = BathModel(mode_frequencies=[1.0], couplings=[0.05])
    with pytest.raises(FitFailure, match="not a clean exponential"):
        bath_brute_force(bath, duration=200.0)


def test_conserving_path_requires_two_level_sector():
    with pytest.raises(DimensionMismatch, match="one-excitation"):
        BathModel(
            mode_frequencies=[0.9, 1.1], couplings=[0.01] * 2, particle_levels=3
        )


# ------------------------------------------------------------------ report


def test_oracle_report_csv_layout():
    bath = make_flat_bath(64, 0.2, 5.0, gamma_target=5e-3)
    golden = discrete_golden_rule(bath)
    shift_sum = discrete_second_order_shift(bath)
    result = bath_brute_force(bath, rates_expected=(golden, shift_sum))
    lines = oracle_report_csv(result).strip().splitlines()
    assert lines[0] == "quantity,expected,fitted,relative_error,pass"
    gamma_fields = lines[1].split(",")
    assert gamma_fields[0] == "gamma"
    assert float(gamma_fields[1]) == pytest.approx(5e-3, rel=1e-12)
    assert float(gamma_fields[3]) < 0.10
    assert gamma_fields[4] == "pass"
    shift_fields = lines[2].split(",")
    assert shift_fields[0] == "shift"
    assert shift_fields[4] == "pass"
    # an expected value far from the fit flips the verdict
    far = replace(result, gamma_expected=2.0 * result.gamma_fit,
                  shift_expected=2.0 * result.shift_fit)
    for line in oracle_report_csv(far).strip().splitlines()[1:]:
        fields = line.split(",")
        assert float(fields[3]) == 0.5
        assert fields[4] == "fail"
    # the verdict turns between 9 and 11 % (gamma) and 4 and 6 % (shift)
    for rel, verdicts in ((0.09, ("pass", "fail")), (0.04, ("pass", "pass")),
                          (0.11, ("fail", "fail")), (0.06, ("pass", "fail"))):
        near = replace(result, gamma_expected=result.gamma_fit / (1.0 + rel),
                       shift_expected=result.shift_fit / (1.0 + rel))
        rows = oracle_report_csv(near).strip().splitlines()[1:]
        assert tuple(row.split(",")[4] for row in rows) == verdicts


def test_oracle_report_csv_without_references():
    bath = make_flat_bath(16, 0.5, 1.5, gamma_target=2e-3)
    result = bath_brute_force(bath, duration=40.0, n_points=801)
    lines = oracle_report_csv(result).strip().splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] == ""  # no expectation recorded
        assert fields[3] == ""
        assert fields[4] == ""
        float(fields[2])  # fitted value still present and parseable
