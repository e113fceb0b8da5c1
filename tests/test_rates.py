"""Closed-form rates: damping, raw/renormalized shifts, free-particle piece.

The pinned numbers below are straight-line evaluations of the closed forms
at the reference trap (omega_c = 9.42e11 rad/s, electron) and the
zero-point cutoff 3.824437515578783e16 rad/s, frozen from an independent
arithmetic script.
"""
import dataclasses
import math

import numpy as np
import pytest

from vactrap.cli import run_cli
from vactrap.errors import ConfigurationError, SingularCutoff
from vactrap.params import (
    CODATA_2022,
    ELECTRON,
    ApproximationMode,
    CutoffKind,
    ParticleSpec,
    parse_config_text,
    reference_config,
)
from vactrap.rates import (
    RateSet,
    build_rate_set,
    damping_rate,
    free_particle_shift,
    frequency_shift,
    kappa,
    level_shifts_raw,
    level_shifts_renormalized,
    relative_shift,
)

W_REF = 9.42e11
W_MAX = 3.824437515578783e16  # zero-point cutoff at the reference trap
GAMMA_REF = 11.121199473377965
KAPPA_REF = 1.213379523790401e-09
RAW_REF = (71841.41889571023, -71878.98348189173)
REN_REF = (-18.782336687598097, -18.78224949390133)
DW_BEYOND = 8.719369676768451e-05
DE_LIN = 1.5256942936814822e-07


def test_kappa_reference_value():
    assert kappa(ELECTRON, W_REF) == pytest.approx(KAPPA_REF, rel=1e-12)


def test_damping_rate_reference_value():
    assert damping_rate(ELECTRON, W_REF) == pytest.approx(GAMMA_REF, rel=1e-12)


def test_damping_rate_alpha_kappa_identity():
    # G = (4/3) alpha kappa w, to the CODATA alpha self-consistency level
    via_alpha = (4.0 / 3.0) * CODATA_2022.alpha_fs * KAPPA_REF * W_REF
    assert damping_rate(ELECTRON, W_REF) == pytest.approx(via_alpha, rel=1e-11)


def test_damping_rate_scales_with_frequency_squared():
    assert damping_rate(ELECTRON, 2.0 * W_REF) == pytest.approx(
        4.0 * damping_rate(ELECTRON, W_REF), rel=1e-14
    )


@pytest.mark.parametrize(
    "omega_c",
    [1e160, np.float64(1e160), 1.5e154, np.float64(1.5e154)],
    ids=["float-1e160", "float64-1e160", "float-1.5e154", "float64-1.5e154"],
)
def test_overflowing_damping_rate_is_a_configuration_error(omega_c):
    # with no OverflowError (Python float) or RuntimeWarning (numpy float) first
    with pytest.raises(ConfigurationError, match="damping rate .* positive and finite, got inf"):
        damping_rate(ELECTRON, omega_c)


def test_underflowed_damping_denominator_is_a_configuration_error():
    # 3 pi eps0 m c**3 rounds to zero at a mass near the float floor
    light = ParticleSpec(mass=1e-320, charge=ELECTRON.charge)
    with pytest.raises(ConfigurationError, match="damping rate .* positive and finite, got inf"):
        damping_rate(light, 1e10)


def test_a_subnormal_damping_rate_is_a_configuration_error():
    # at a mass of 1e280 kg the rate is 1.0e-309 1/s, below the smallest
    # normal double: `rates` printed relative_shift 5e-324, and `pt-compare`
    # PT/ME ratios from 3.06 to 2524 where the closed form says 3, exit 0
    # (the CLI's refusal is pinned in test_cli.py)
    heavy = ParticleSpec(mass=1e280, charge=ELECTRON.charge)
    with pytest.raises(ConfigurationError, match=r"^damping rate at omega_c = 942000000000.0 "
                       r"must be at least 2.2250738585072014e-308, got 1.013072733618227e-309$"):
        damping_rate(heavy, W_REF)
    # a hundred times lighter, the rate is normal and keeps its closed form
    lighter = ParticleSpec(mass=1e278, charge=ELECTRON.charge)
    assert damping_rate(lighter, W_REF) == pytest.approx(GAMMA_REF * ELECTRON.mass / 1e278,
                                                         rel=1e-14)


_TINY_CHARGE = "trap.omega_c_rad_s = 9.42e11\nparticle.charge_C = 1e-320\n"
_SLOW_TRAP = "trap.omega_c_rad_s = 1e-300\n"


@pytest.mark.parametrize(
    "config, argv",
    [(_TINY_CHARGE, ["sweep-b", "--cutoff", "compton", "--points", "16"]),
     (_TINY_CHARGE, ["rates"]),
     (_TINY_CHARGE, ["validate", "--format", "csv"]),
     (_SLOW_TRAP, ["validate", "--format", "csv"])],
    ids=["sweep-tiny-charge", "rates-tiny-charge", "validate-tiny-charge", "validate-slow"],
)
def test_an_underflowed_damping_rate_is_an_input_error(config, argv, capsys, tmp_path):
    # q**2 w**2 rounds to zero; a zero rate printed gamma 0 and zero shifts,
    # and every sweep shift and exponent as nan, with exit 0
    parsed = parse_config_text(config)
    with pytest.raises(ConfigurationError, match="damping rate .* positive and finite, got 0.0"):
        damping_rate(parsed.particle, parsed.omega_c)
    path = tmp_path / "underflow.cfg"
    path.write_text(config)
    assert run_cli([*argv, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vactrap: input error: damping rate at omega_c = ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["rates"], ["validate", "--format", "csv"]], ids=["rates", "validate"]
)
def test_an_overflowing_shift_logarithm_is_an_input_error(argv, capsys, tmp_path):
    # W / w = 1e310 overflows; the shifts printed as -inf and the relative
    # shift and positivity horizon as nan, with exit 0
    words = "the shift logarithm's argument .* must be positive and finite, got inf"
    with pytest.raises(ConfigurationError, match=words):
        level_shifts_renormalized(1.0, 1e-10, 1e300)
    path = tmp_path / "wide.cfg"
    path.write_text(
        "trap.omega_c_rad_s = 1e-10\ncutoff.kind = explicit\ncutoff.value_rad_s = 1e300\n"
    )
    assert run_cli([*argv, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vactrap: input error: the shift logarithm's argument ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("bad", [0.0, -W_REF, math.inf])
def test_positive_frequency_guard(bad):
    with pytest.raises(ConfigurationError):
        damping_rate(ELECTRON, bad)


def test_level_shifts_raw_reference_values():
    d_plus, d_minus = level_shifts_raw(GAMMA_REF, W_REF, W_MAX)
    assert d_plus == pytest.approx(RAW_REF[0], rel=1e-12)
    assert d_minus == pytest.approx(RAW_REF[1], rel=1e-12)


def test_level_shifts_renormalized_reference_values():
    d_plus, d_minus = level_shifts_renormalized(GAMMA_REF, W_REF, W_MAX)
    assert d_plus == pytest.approx(REN_REF[0], rel=1e-12)
    assert d_minus == pytest.approx(REN_REF[1], rel=1e-12)


def test_renormalization_removes_the_linear_piece():
    # raw -+ (dE_lin w / 2) reproduces the renormalized pair: the linear-in-
    # cutoff part of the raw shifts is exactly the free-particle term.
    lin = free_particle_shift(ELECTRON, W_MAX).delta_e_lin
    d_plus_raw, d_minus_raw = level_shifts_raw(GAMMA_REF, W_REF, W_MAX)
    d_plus_ren, d_minus_ren = level_shifts_renormalized(GAMMA_REF, W_REF, W_MAX)
    assert d_plus_raw - lin * W_REF / 2.0 == pytest.approx(d_plus_ren, rel=1e-11)
    assert d_minus_raw + lin * W_REF / 2.0 == pytest.approx(d_minus_ren, rel=1e-11)


def test_renormalized_asymptotic_matches_exact_at_large_cutoff():
    # D+-^R ~ (G/2 pi)(ln(w/W) -+ w/W) for W >> w; W/w ~ 4e4 here, so the
    # neglected terms are O((w/W)^2) ~ 6e-10
    exact = level_shifts_renormalized(GAMMA_REF, W_REF, W_MAX)
    pref = GAMMA_REF / (2.0 * math.pi)
    ratio = W_REF / W_MAX
    assert pref * (math.log(ratio) - ratio) == pytest.approx(exact[0], rel=1e-8)
    assert pref * (math.log(ratio) + ratio) == pytest.approx(exact[1], rel=1e-8)


def test_frequency_shift_beyond_rwa_reference_value():
    dw = frequency_shift(GAMMA_REF, W_REF, W_MAX, ApproximationMode.BEYOND_RWA)
    assert dw == pytest.approx(DW_BEYOND, rel=1e-12)
    assert dw > 0.0


def test_frequency_shift_with_rwa_is_single_quantum_only():
    dw = frequency_shift(GAMMA_REF, W_REF, W_MAX, ApproximationMode.WITH_RWA)
    assert dw == pytest.approx(REN_REF[1], rel=1e-12)
    assert dw < 0.0


def test_frequency_shift_asymptotic_form():
    # G w / (pi W) approximates the exact difference to O((w/W)^2)
    dw = frequency_shift(GAMMA_REF, W_REF, W_MAX, ApproximationMode.BEYOND_RWA)
    assert GAMMA_REF * W_REF / (math.pi * W_MAX) == pytest.approx(dw, rel=1e-8)


def test_singular_cutoff_rejected():
    with pytest.raises(SingularCutoff):
        level_shifts_raw(GAMMA_REF, W_REF, W_REF)
    with pytest.raises(SingularCutoff):
        level_shifts_renormalized(GAMMA_REF, W_REF, W_REF * (1.0 + 1e-13))


def test_relative_shift_reference_table_entry():
    config = reference_config()  # zero-point cutoff, beyond RWA
    assert relative_shift(config) == pytest.approx(DW_BEYOND / W_REF, rel=1e-12)


def test_relative_shift_rwa_reference_table_entry():
    config = reference_config(mode=ApproximationMode.WITH_RWA)
    assert relative_shift(config) == pytest.approx(REN_REF[1] / W_REF, rel=1e-12)


def test_total_frequency_composition(capsys):
    # the rates report's total frequency is w + dw of the reference table
    assert run_cli(["rates"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    value = dict(line.split(",") for line in lines[1:])
    assert float(value["total_frequency_rad_s"]) == pytest.approx(
        W_REF + DW_BEYOND, rel=1e-14
    )


def test_free_particle_shift_values_and_factor_two():
    fp = free_particle_shift(ELECTRON, W_MAX)
    assert fp.delta_e_lin == pytest.approx(DE_LIN, rel=1e-12)
    assert fp.delta_e_fp == 2.0 * fp.delta_e_lin
    # independent route through the fine-structure constant:
    # dE_FP = (8 alpha / 3 pi) (hbar W / m c^2)
    k_cut = CODATA_2022.hbar * W_MAX / (ELECTRON.mass * CODATA_2022.c**2)
    via_alpha = (8.0 * CODATA_2022.alpha_fs / (3.0 * math.pi)) * k_cut
    assert fp.delta_e_fp == pytest.approx(via_alpha, rel=1e-11)


def test_free_particle_linear_piece_equals_gamma_identity():
    # dE_lin = G W / (pi w^2)
    fp = free_particle_shift(ELECTRON, W_MAX)
    assert fp.delta_e_lin == pytest.approx(
        GAMMA_REF * W_MAX / (math.pi * W_REF**2), rel=1e-12
    )


def test_build_rate_set_reference_fields():
    rs = build_rate_set(reference_config())
    assert rs.gamma == pytest.approx(GAMMA_REF, rel=1e-12)
    # the record keeps the renormalized pair; the raw pair is evaluated at
    # its own gamma, omega_c and omega_max
    d_plus_raw, d_minus_raw = level_shifts_raw(rs.gamma, rs.omega_c, rs.omega_max)
    assert d_plus_raw == pytest.approx(RAW_REF[0], rel=1e-12)
    assert d_minus_raw == pytest.approx(RAW_REF[1], rel=1e-12)
    assert rs.delta_plus == pytest.approx(REN_REF[0], rel=1e-12)
    assert rs.delta_minus == pytest.approx(REN_REF[1], rel=1e-12)
    assert rs.delta_omega == pytest.approx(DW_BEYOND, rel=1e-12)
    assert rs.omega_c == W_REF
    assert rs.omega_max == pytest.approx(W_MAX, rel=1e-12)
    assert rs.mode is ApproximationMode.BEYOND_RWA
    # one field per rate: no raw pair and no second name for a shift
    assert [f.name for f in dataclasses.fields(rs)] == [
        "gamma", "delta_plus", "delta_minus", "omega_c", "omega_max", "mode"
    ]


def test_build_rate_set_rwa_delta_omega():
    rs = build_rate_set(reference_config(mode=ApproximationMode.WITH_RWA))
    assert rs.delta_omega == rs.delta_minus


def test_scaled_rate_set():
    rs = RateSet.scaled(1e-2, 5e-3, 8e-3)
    assert rs.gamma == 1e-2
    assert rs.delta_plus == 5e-3
    assert rs.delta_minus == 8e-3
    assert rs.delta_omega == pytest.approx(3e-3)
    assert rs.omega_c == 1.0
    assert math.isnan(rs.omega_max)
    with pytest.raises(ConfigurationError):
        RateSet.scaled(math.nan, 5e-3, 8e-3)


def test_table_values_consistent_across_cutoffs():
    # the de Broglie and zero-point columns sit within 0.5% of each other at
    # the reference trap (their cutoffs differ by only 4.5%)
    shift2 = relative_shift(reference_config(cutoff=CutoffKind.DE_BROGLIE))
    shift3 = relative_shift(reference_config(cutoff=CutoffKind.ZERO_POINT))
    assert shift2 == pytest.approx(shift3, rel=0.05)
    # while the largest-amplitude column is two orders larger (softer cutoff)
    shift1 = relative_shift(reference_config(cutoff=CutoffKind.LARGEST_AMPLITUDE))
    assert shift1 / shift3 > 50.0
