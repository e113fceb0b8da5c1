"""Second-order perturbation-theory constants and the factor-3 cross-check."""
import math

import pytest

from vactrap.errors import ConfigurationError, SingularDenominator
from vactrap.params import CODATA_2022, ELECTRON, ParticleSpec
from vactrap.perturbation import (
    pt_constants,
    pt_frequency_shift_renormalized,
    pt_renormalization_term,
)
from vactrap.rates import (
    damping_rate,
    free_particle_shift,
    kappa,
    level_shifts_raw,
    level_shifts_renormalized,
)

W_REF = 9.42e11  # reference trap frequency, rad/s
OMEGA_MAX_1 = 376730313461770.6  # largest-amplitude cutoff at the reference trap

# frozen against an independent straight-line transcription of the closed
# forms (no package imports), evaluated once and pinned here
FROZEN = {
    "delta0_pm": (2091.7729802463605, -2155.4001158756687),
    "delta1_pm": (0.06817721987621193, -0.06920799536196874),
    "delta2a_pm": (9.904757696127466e-07, -1.0092268015625581e-06),
    "delta2b_pm": (9.966430668019056e-07, -1.0028927852084967e-06),
    "delta2c_pm": (0.06843109774051416, -0.06894638754169176),
}


def test_constants_frozen_values():
    shifts = pt_constants(ELECTRON, W_REF, OMEGA_MAX_1)
    for name, (plus, minus) in FROZEN.items():
        got_plus, got_minus = getattr(shifts, name)
        assert got_plus == pytest.approx(plus, rel=1e-12), name
        assert got_minus == pytest.approx(minus, rel=1e-12), name


def test_constants_hierarchy_in_recoil_parameter():
    # successive orders shrink by the recoil ratio ~ 1e-9, but the W^3 and
    # W^5 cutoff powers promote d1 and d2 back up; at the hardest physical
    # cutoff they settle ~ 3e-5 below d0 -- small yet far above rounding
    shifts = pt_constants(ELECTRON, W_REF, OMEGA_MAX_1)
    d0 = abs(shifts.delta0_pm[0])
    assert abs(shifts.delta1_pm[0]) / d0 < 1e-3
    assert abs(shifts.delta1_pm[0]) / d0 == pytest.approx(3.2593e-5, rel=1e-3)
    assert abs(shifts.delta2c_pm[0]) / d0 == pytest.approx(3.2714e-5, rel=1e-3)
    assert abs(shifts.delta2a_pm[0]) < abs(shifts.delta1_pm[0])


@pytest.mark.parametrize(
    "particle, omega_c, words",
    [
        # kappa**2 past the float range on a light particle
        (ParticleSpec(mass=1e-300, charge=ELECTRON.charge), 1e10, "delta1 is not finite"),
        # omega_c**2 of the order-3 integral underflows to zero on a slow trap
        (ELECTRON, 1e-300, "trap frequency 1e-300 rad/s underflows the order-3"),
    ],
    ids=["light", "slow"],
)
def test_constants_past_the_float_range_are_configuration_errors(particle, omega_c, words):
    with pytest.raises(ConfigurationError, match=words):
        pt_constants(particle, omega_c, 20.0 * omega_c)


def test_zero_cutoff_gives_zero_constants():
    shifts = pt_constants(ELECTRON, W_REF, 0.0)
    for name in FROZEN:
        plus, minus = getattr(shifts, name)
        assert plus == 0.0
        assert minus == 0.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_resonant_cutoffs_are_rejected(order):
    with pytest.raises(SingularDenominator):
        pt_constants(ELECTRON, W_REF, order * W_REF)


def test_invalid_frequencies_are_rejected():
    with pytest.raises(SingularDenominator):
        pt_constants(ELECTRON, 0.0, OMEGA_MAX_1)
    with pytest.raises(SingularDenominator):
        pt_constants(ELECTRON, W_REF, -1.0)


def test_renormalization_term_matches_free_particle_route():
    # 2 a_q kappa W / pi == 1.5 * delta_e_lin * omega_c, for any charge/mass
    for particle in (
        ELECTRON,
        ParticleSpec(mass=3.0 * CODATA_2022.m_e, charge=2.0 * CODATA_2022.e),
    ):
        term = pt_renormalization_term(particle, W_REF, OMEGA_MAX_1)
        lin = free_particle_shift(particle, OMEGA_MAX_1).delta_e_lin
        assert term == pytest.approx(1.5 * lin * W_REF, rel=1e-12)


@pytest.mark.parametrize("ratio", [5.0, 1000.0])
@pytest.mark.parametrize("omega_c", [W_REF, 2.5e11])
def test_renormalized_spacing_is_three_times_master_equation_shift(ratio, omega_c):
    omega_max = ratio * omega_c
    pt = pt_frequency_shift_renormalized(ELECTRON, omega_c, omega_max)
    gamma = damping_rate(ELECTRON, omega_c)
    dp_ren, dm_ren = level_shifts_renormalized(gamma, omega_c, omega_max)
    me = dm_ren - dp_ren
    assert pt / me == pytest.approx(3.0, rel=1e-9)
    assert pt > 0.0


def test_renormalized_spacing_requires_cutoff_above_trap():
    with pytest.raises(SingularDenominator):
        pt_frequency_shift_renormalized(ELECTRON, W_REF, W_REF)
    with pytest.raises(SingularDenominator):
        pt_frequency_shift_renormalized(ELECTRON, W_REF, 0.5 * W_REF)


def _reference_constants(omega_c, omega_max):
    """The five constant pairs, each written out as its own closed form."""
    a_q = CODATA_2022.fine_structure(ELECTRON.charge)
    k = kappa(ELECTRON, omega_c)
    w, W = omega_c, omega_max

    def d0(sign):
        return (2.0 * a_q * k / math.pi) * (
            -w * math.log(abs((w + sign * W) / w)) + sign * W
        )

    def d1(sign):
        return (a_q * k**2 / math.pi) * (
            -8.0 * w * math.log(abs((2.0 * w + sign * W) / (2.0 * w)))
            + sign * 4.0 * W
            - W**2 / w
            + sign * W**3 / (3.0 * w**2)
        )

    def d2a(sign):
        return (a_q * k**3 / (8.0 * math.pi)) * (
            -243.0 * w * math.log(abs((3.0 * w + sign * W) / (3.0 * w)))
            + sign * 81.0 * W
            - 27.0 * W**2 / (2.0 * w)
            + sign * 3.0 * W**3 / w**2
            - 3.0 * W**4 / (4.0 * w**3)
            + sign * W**5 / (5.0 * w**4)
        )

    def d2b(sign):
        return (a_q * k**3 / (8.0 * math.pi)) * (
            -w * math.log(abs((w + sign * W) / w))
            + sign * W
            - W**2 / (2.0 * w)
            + sign * W**3 / (3.0 * w**2)
            - W**4 / (4.0 * w**3)
            + sign * W**5 / (5.0 * w**4)
        )

    def d2c(sign):
        return (a_q * k**2 / math.pi) * (
            -w * math.log(abs((w + sign * W) / w))
            + sign * W
            - W**2 / (2.0 * w)
            + sign * W**3 / (3.0 * w**2)
        )

    return {
        name: (form(1.0), form(-1.0))
        for name, form in zip(FROZEN, (d0, d1, d2a, d2b, d2c))
    }


# below, between and above the 1, 2 and 3 trap-quantum resonances, far past
# them, and just either side of each
RATIO_GRID = [0.5, 1.5, 2.5, 3.5, 400.0, 1e6] + [
    n * (1.0 + side * 1e-9) for n in (1, 2, 3) for side in (-1.0, 1.0)
]


@pytest.mark.parametrize("ratio", RATIO_GRID)
def test_constants_match_straight_line_forms(ratio):
    shifts = pt_constants(ELECTRON, W_REF, ratio * W_REF)
    reference = _reference_constants(W_REF, ratio * W_REF)
    assert shifts.delta0_pm == reference["delta0_pm"]
    for name in FROZEN:
        assert getattr(shifts, name) == pytest.approx(reference[name], rel=1e-12)


@pytest.mark.parametrize("ratio", RATIO_GRID)
def test_zeroth_constants_are_three_raw_level_shifts(ratio):
    # criterion 8 in structural form: the same kernel, prefactors 3 apart
    omega_max = ratio * W_REF
    raw = level_shifts_raw(damping_rate(ELECTRON, W_REF), W_REF, omega_max)
    delta0 = pt_constants(ELECTRON, W_REF, omega_max).delta0_pm
    assert delta0 == pytest.approx(tuple(3.0 * d for d in raw), rel=1e-12)
