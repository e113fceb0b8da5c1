"""Constants, particle/trap validation, cutoff rules, config parsing."""
import math
from dataclasses import replace

import numpy as np
import pytest

from vactrap.cli import run_cli
from vactrap.errors import (
    ConfigParseError,
    ConfigurationError,
    LongWavelengthWarning,
    MissingParameter,
)
from vactrap.params import (
    CODATA_2022,
    ELECTRON,
    ApproximationMode,
    CutoffKind,
    CutoffSpec,
    ExperimentConfig,
    ParticleSpec,
    TrapSpec,
    compton_frequency,
    cutoff_frequency,
    cyclotron_frequency,
    load_config,
    lwa_bound,
    parse_config_text,
    parse_cutoff_kind,
    parse_mode,
    reference_config,
    spin_coupling_ratio,
)

# Reference trap: omega_c = 9.42e11 rad/s, d_a = 5 um, d_c = 15 nm, electron.
W_REF = 9.42e11
B_REF = 5.355863564849493  # T, = omega_c m_e / e


def test_constants_are_the_published_codata_2022_values():
    # the recommended values as published (Mohr et al., CODATA 2022), typed
    # in rather than read from any library; h, c and e are exact in the SI
    assert CODATA_2022.hbar == 6.62607015e-34 / (2.0 * math.pi)
    assert CODATA_2022.c == 299792458.0
    assert CODATA_2022.eps0 == 8.8541878188e-12
    assert CODATA_2022.e == 1.602176634e-19
    assert CODATA_2022.m_e == 9.1093837139e-31
    assert CODATA_2022.alpha_fs == 7.2973525643e-3


def test_fine_structure_matches_codata_alpha():
    computed = CODATA_2022.fine_structure(-CODATA_2022.e)
    assert computed == pytest.approx(CODATA_2022.alpha_fs, rel=1e-11)


def test_fine_structure_scales_with_charge_squared():
    assert CODATA_2022.fine_structure(2.0 * CODATA_2022.e) == pytest.approx(
        4.0 * CODATA_2022.alpha_fs, rel=1e-11
    )


def test_cyclotron_frequency_reference_field():
    assert cyclotron_frequency(ELECTRON, B_REF) == pytest.approx(W_REF, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_cyclotron_frequency_rejects_nonpositive_field(bad):
    with pytest.raises(ConfigurationError):
        cyclotron_frequency(ELECTRON, bad)


def test_cyclotron_frequency_overflow_is_refused_without_a_warning():
    # |q| B / m past the largest double is inf, refused as not finite, with
    # no overflow warning; a numpy field gives the Python field's double
    with pytest.raises(ConfigurationError, match="finite"):
        cyclotron_frequency(ELECTRON, np.float64(1e300))
    assert cyclotron_frequency(ELECTRON, np.float64(B_REF)) == cyclotron_frequency(ELECTRON, B_REF)


def test_particle_spec_validation():
    with pytest.raises(ConfigurationError):
        ParticleSpec(mass=-1e-30, charge=-CODATA_2022.e)
    with pytest.raises(ConfigurationError):
        ParticleSpec(mass=CODATA_2022.m_e, charge=0.0)


def test_trap_spec_needs_a_frequency_or_field():
    with pytest.raises(ConfigurationError):
        TrapSpec()
    # and every field it carries must be positive and finite
    for name in ("omega_c", "b_field", "d_a", "d_c"):
        with pytest.raises(ConfigurationError, match=f"trap.{name} must be positive"):
            TrapSpec(**{"omega_c": W_REF, name: -1.0})


def test_trap_spec_geometry_ordering():
    with pytest.raises(ConfigurationError):
        TrapSpec(omega_c=1e11, d_a=1e-9, d_c=1e-6)


def test_config_rejects_inconsistent_field_and_frequency():
    trap = TrapSpec(omega_c=W_REF, b_field=2.0 * B_REF)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(
            particle=ELECTRON,
            trap=trap,
            cutoff=CutoffSpec(kind=CutoffKind.ZERO_POINT),
            mode=ApproximationMode.BEYOND_RWA,
        )


def test_config_accepts_consistent_field_and_frequency():
    trap = TrapSpec(omega_c=W_REF, b_field=B_REF)
    config = ExperimentConfig(
        particle=ELECTRON,
        trap=trap,
        cutoff=CutoffSpec(kind=CutoffKind.ZERO_POINT),
        mode=ApproximationMode.BEYOND_RWA,
    )
    assert config.omega_c == W_REF
    assert config.b_field == B_REF


def test_config_derives_field_from_frequency():
    config = reference_config()
    assert config.omega_c == W_REF
    assert config.b_field == pytest.approx(B_REF, rel=1e-12)
    # and the frequency from a field alone
    config = ExperimentConfig(
        particle=ELECTRON,
        trap=TrapSpec(b_field=B_REF),
        cutoff=CutoffSpec(kind=CutoffKind.ZERO_POINT),
        mode=ApproximationMode.BEYOND_RWA,
    )
    assert config.omega_c == cyclotron_frequency(ELECTRON, B_REF)
    assert config.b_field == B_REF


def test_cutoff_spec_explicit_needs_value():
    with pytest.raises(ConfigurationError):
        CutoffSpec(kind=CutoffKind.EXPLICIT)
    with pytest.raises(ConfigurationError):
        CutoffSpec(kind=CutoffKind.ZERO_POINT, value=1e15)


# Resolved cutoff frequencies for the reference trap (rad/s).  Each is an
# exact closed form of the trap numbers and CODATA constants.
CUTOFF_VALUES = {
    CutoffKind.LARGEST_AMPLITUDE: 376730313461770.6,
    CutoffKind.DE_BROGLIE: 3.6591119757004744e16,
    CutoffKind.ZERO_POINT: 3.824437515578783e16,
    CutoffKind.COMPTON: 7.763440716861156e20,
}


@pytest.mark.parametrize("kind,value", sorted(CUTOFF_VALUES.items(), key=str))
def test_cutoff_frequency_reference_values(kind, value):
    config = reference_config(cutoff=kind)
    assert cutoff_frequency(config) == pytest.approx(value, rel=1e-12)


def test_cutoff_ordering_for_reference_trap():
    vals = CUTOFF_VALUES
    assert (
        vals[CutoffKind.LARGEST_AMPLITUDE]
        < vals[CutoffKind.DE_BROGLIE]
        < vals[CutoffKind.ZERO_POINT]
        < vals[CutoffKind.COMPTON]
    )


def test_zero_point_cutoff_equals_lwa_bound():
    config = reference_config(cutoff=CutoffKind.ZERO_POINT)
    assert cutoff_frequency(config) == lwa_bound(ELECTRON, W_REF)


def test_largest_amplitude_cutoff_needs_geometry():
    config = ExperimentConfig(
        particle=ELECTRON,
        trap=TrapSpec(omega_c=W_REF),
        cutoff=CutoffSpec(kind=CutoffKind.LARGEST_AMPLITUDE),
        mode=ApproximationMode.BEYOND_RWA,
    )
    with pytest.raises(MissingParameter):
        cutoff_frequency(config)
    with pytest.raises(MissingParameter, match="trap.d_c"):
        cutoff_frequency(replace(config, cutoff=CutoffSpec(kind=CutoffKind.DE_BROGLIE)))


def test_de_broglie_cutoff_warns_beyond_lwa_bound():
    # widen the orbit dimension until the rule exceeds the bound
    trap = TrapSpec(omega_c=W_REF, d_a=5.0e-6, d_c=20.0e-9)
    config = ExperimentConfig(
        particle=ELECTRON,
        trap=trap,
        cutoff=CutoffSpec(kind=CutoffKind.DE_BROGLIE),
        mode=ApproximationMode.BEYOND_RWA,
    )
    with pytest.warns(LongWavelengthWarning):
        value = cutoff_frequency(config)
    assert value > lwa_bound(ELECTRON, W_REF)


def test_device_cutoffs_capped_at_compton():
    trap = TrapSpec(omega_c=W_REF, d_a=2.0, d_c=1.0)  # absurd 1 m orbit
    config = ExperimentConfig(
        particle=ELECTRON,
        trap=trap,
        cutoff=CutoffSpec(kind=CutoffKind.DE_BROGLIE),
        mode=ApproximationMode.BEYOND_RWA,
    )
    with pytest.warns(LongWavelengthWarning):
        value = cutoff_frequency(config)
    assert value == compton_frequency(ELECTRON)


def test_explicit_cutoff_passes_through_without_warning(recwarn):
    config = reference_config(
        cutoff=CutoffSpec(kind=CutoffKind.EXPLICIT, value=1e21)
    )
    assert cutoff_frequency(config) == 1e21
    assert not [w for w in recwarn if issubclass(w.category, LongWavelengthWarning)]


def test_lwa_bound_reference_value():
    # sqrt(2 m c^2 w / hbar); /2pi lands at 6.087e15 Hz
    bound = lwa_bound(ELECTRON, W_REF)
    assert bound == pytest.approx(3.824437515578783e16, rel=1e-12)
    assert bound / (2.0 * math.pi) == pytest.approx(6.086781e15, rel=1e-6)
    for bad in (0.0, -W_REF, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="omega_c must be positive"):
            lwa_bound(ELECTRON, bad)


def test_a_bound_past_the_float_range_is_refused_under_its_own_name():
    # at a mass of 1e280 kg both overflow to inf, and a mass near the float
    # floor on a slow trap takes the bound to 0; the default zero-point
    # cut-off was refused as "omega_max must be positive and finite, got
    # inf", naming neither the bound nor the mass (the CLI's refusal is
    # pinned in test_cli.py)
    heavy = ParticleSpec(mass=1e280, charge=ELECTRON.charge)
    with pytest.raises(ConfigurationError, match=r"^long-wavelength bound of mass 1e\+280 kg "
                       r"at omega_c = 942000000000.0 must be positive and finite, got inf$"):
        lwa_bound(heavy, W_REF)
    with pytest.raises(ConfigurationError, match=r"^Compton frequency of mass 1e\+280 kg "
                       r"must be positive and finite, got inf$"):
        compton_frequency(heavy)
    light = ParticleSpec(mass=1e-320, charge=ELECTRON.charge)
    with pytest.raises(ConfigurationError, match="long-wavelength bound .* got 0.0$"):
        lwa_bound(light, 1e-300)


def test_spin_coupling_ratio_reference_values():
    ratio = spin_coupling_ratio(ELECTRON, W_REF, CUTOFF_VALUES[CutoffKind.ZERO_POINT])
    assert ratio == pytest.approx(211985280.00038326, rel=1e-12)
    # numerator alone, probed through a 1e15 rad/s mode
    assert spin_coupling_ratio(ELECTRON, W_REF, 1e15) == pytest.approx(
        8107244575.839385, rel=1e-12
    )
    for bad in (0.0, -1e15, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="mode_frequency must be positive"):
            spin_coupling_ratio(ELECTRON, W_REF, bad)


def test_an_underflowed_spin_coupling_ratio_is_an_input_error(capsys, tmp_path):
    # m omega_c / hbar rounds to zero at a damping rate of about 1e-133 1/s;
    # the ratio printed as 0.0 and spin_negligible as false, with exit 0
    light = ParticleSpec(mass=1e-200, charge=ELECTRON.charge)
    words = "m omega_c / hbar must be positive and finite, got 0.0"
    with pytest.raises(ConfigurationError, match=words):
        spin_coupling_ratio(light, 1e-140, 1e-150)
    path = tmp_path / "spin.cfg"
    path.write_text("particle.mass_kg = 1e-200\ntrap.omega_c_rad_s = 1e-140\n")
    assert run_cli(["validate", "--format", "csv", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"vactrap: input error: {words}\n"


def test_parse_cutoff_kind_aliases():
    assert parse_cutoff_kind("omega1") is CutoffKind.LARGEST_AMPLITUDE
    assert parse_cutoff_kind("omega2") is CutoffKind.DE_BROGLIE
    assert parse_cutoff_kind(" Omega3 ") is CutoffKind.ZERO_POINT
    assert parse_cutoff_kind("compton") is CutoffKind.COMPTON
    with pytest.raises(ConfigParseError):
        parse_cutoff_kind("omega4")


def test_parse_mode():
    assert parse_mode("with-rwa") is ApproximationMode.WITH_RWA
    assert parse_mode("BEYOND-RWA") is ApproximationMode.BEYOND_RWA
    with pytest.raises(ConfigParseError):
        parse_mode("classical")


CONFIG_TEXT = """
# single-electron trap
trap.omega_c_rad_s = 9.42e11
trap.d_a_m = 5.0e-6   # axial extent
trap.d_c_m = 15.0e-9
cutoff.kind = omega3
mode = beyond-rwa
"""


def test_parse_config_text_roundtrip():
    config = parse_config_text(CONFIG_TEXT)
    assert config.particle == ELECTRON
    assert config.omega_c == W_REF
    assert config.cutoff.kind is CutoffKind.ZERO_POINT
    assert config.mode is ApproximationMode.BEYOND_RWA


def test_parse_config_defaults_match_reference():
    config = parse_config_text(CONFIG_TEXT)
    ref = reference_config()
    assert cutoff_frequency(config) == cutoff_frequency(ref)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("trap.omega = 1e11", "unknown key"),
        ("trap.omega_c_rad_s = 1e11\ntrap.omega_c_rad_s = 2e11", "duplicate"),
        ("trap.omega_c_rad_s = fast", "not a number"),
        ("no equals sign here", "expected key = value"),
        ("trap.omega_c_rad_s = 1e11\ncutoff.value_rad_s = 1e15", "explicit"),
    ],
)
def test_parse_config_text_rejects_bad_input(text, fragment):
    with pytest.raises(ConfigParseError, match=fragment):
        parse_config_text(text)


def test_parse_config_explicit_cutoff():
    config = parse_config_text(
        "trap.omega_c_rad_s = 9.42e11\ncutoff.kind = explicit\n"
        "cutoff.value_rad_s = 2.5e15\n"
    )
    assert config.cutoff.value == 2.5e15
    assert cutoff_frequency(config) == 2.5e15


def test_load_config_builtin_name():
    config = load_config("sec-reference")
    assert config.omega_c == W_REF
    assert config.trap.d_a == 5.0e-6
    assert config.trap.d_c == 15.0e-9


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigParseError, match="not found"):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_load_config_unreadable_file(tmp_path, kind):
    # a path that exists but cannot be read as UTF-8 text is a parse error,
    # not an OSError or a UnicodeDecodeError
    path = tmp_path / "trap.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"trap.omega_c_rad_s = 9.42e11\n\xff\xfe\n")
    with pytest.raises(ConfigParseError, match="cannot read config file"):
        load_config(path)


def test_load_config_file(tmp_path):
    path = tmp_path / "trap.cfg"
    path.write_text(CONFIG_TEXT)
    assert load_config(path).omega_c == W_REF
