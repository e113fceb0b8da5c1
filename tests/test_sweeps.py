"""Shift tables, field sweeps with local scaling exponents, validity reports."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vactrap.cli import run_cli
from vactrap.errors import (
    ConfigurationError,
    DimensionMismatch,
    GuardExceeded,
    LongWavelengthWarning,
    VactrapError,
)
from vactrap.params import (
    ELECTRON,
    ApproximationMode,
    CutoffKind,
    CutoffSpec,
    ExperimentConfig,
    TrapSpec,
    cutoff_frequency,
    cyclotron_frequency,
    load_config,
    parse_config_text,
    parse_cutoff_kind,
    parse_mode,
    reference_config,
)
from vactrap.rates import _rate_set_at, relative_shift
from vactrap.sweeps import (
    SweepResult,
    bfield_sweep,
    midpoint_exponent,
    rwa_exponent_analytic,
    table1,
    validity_report,
)

from conftest import ulp2

REFERENCE = load_config("sec-reference")

# quoted 2-significant-figure values for the six-cell grid
QUOTED_WITH_RWA = (-1.1e-11, -2.0e-11, -2.0e-11)
QUOTED_BEYOND = (9.4e-15, 9.6e-17, 9.2e-17)


# ------------------------------------------------------------------- table


def test_table_matches_quoted_values():
    report = table1(REFERENCE)
    for got, quoted in zip(report.with_rwa, QUOTED_WITH_RWA):
        assert got == pytest.approx(quoted, abs=ulp2(quoted))
    for got, quoted in zip(report.beyond_rwa, QUOTED_BEYOND):
        assert got == pytest.approx(quoted, abs=ulp2(quoted))


def test_table_cells_equal_single_point_evaluations():
    report = table1(REFERENCE)
    kinds = (CutoffKind.LARGEST_AMPLITUDE, CutoffKind.DE_BROGLIE, CutoffKind.ZERO_POINT)
    for i, kind in enumerate(kinds):
        for mode, column in (
            (ApproximationMode.WITH_RWA, report.with_rwa),
            (ApproximationMode.BEYOND_RWA, report.beyond_rwa),
        ):
            variant = ExperimentConfig(
                particle=REFERENCE.particle,
                trap=REFERENCE.trap,
                cutoff=CutoffSpec(kind=kind),
                mode=mode,
            )
            assert column[i] == relative_shift(variant)


def test_table_csv_is_deterministic(capsys):
    assert run_cli(["table1"]) == 0
    a = capsys.readouterr().out
    assert run_cli(["table1"]) == 0
    assert capsys.readouterr().out == a
    lines = a.strip().splitlines()
    assert lines[0] == "cutoff,with_rwa,beyond_rwa"
    assert len(lines) == 4
    assert lines[1].startswith("omega1,")
    for line in lines[1:]:
        label, rwa, beyond = line.split(",")
        assert float(rwa) < 0.0 < float(beyond)


def test_table_carries_the_long_wavelength_verdict_as_one_note():
    # both modes read the one de Broglie cut-off past the bound; the verdict
    # is a value of the report, and no warning is raised
    config = replace(
        REFERENCE,
        trap=TrapSpec(omega_c=REFERENCE.omega_c, d_a=REFERENCE.trap.d_a, d_c=50e-9),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = table1(config)
    assert len(report.notes) == 1
    assert "long-wavelength" in report.notes[0]
    assert table1(REFERENCE).notes == ()


# ------------------------------------------------------------------ sweeps


def test_sweep_shapes_and_grid():
    result = bfield_sweep(REFERENCE, (1.0, 10.0), 33, cutoff="omega1")
    assert len(result.b_values) == 33
    assert result.b_values[0] == pytest.approx(1.0)
    assert result.b_values[-1] == pytest.approx(10.0)
    assert np.all(np.diff(result.b_values) > 0)
    assert np.isnan(result.local_exponents[0])
    assert np.isnan(result.local_exponents[-1])
    assert not np.any(np.isnan(result.local_exponents[1:-1]))
    assert np.all(np.diff(result.omega_c_values) > 0)
    assert result.notes == ()


def test_sweep_accepts_string_mode_and_cutoff():
    result = bfield_sweep(
        REFERENCE, (1.0, 10.0), 17, mode="with-rwa", cutoff="omega2"
    )
    assert result.mode is ApproximationMode.WITH_RWA
    assert result.cutoff_kind is CutoffKind.DE_BROGLIE


def test_sweep_notes_long_wavelength_excursions():
    # the geometry-fixed de Broglie cutoff rides linearly with B while the
    # bound only grows like sqrt(B), so the top of this range strains the
    # dipole form and the sweep must say so
    noted = bfield_sweep(REFERENCE, (1.0, 10.0), 33, cutoff="omega2")
    assert len(noted.notes) == 1
    assert "long-wavelength" in noted.notes[0]
    clean = bfield_sweep(REFERENCE, (1.0, 10.0), 33, cutoff="omega1")
    assert clean.notes == ()
    # below a millitesla the first noted field keeps its significant digits
    tiny = bfield_sweep(REFERENCE, (1e-5, 1e-4), 16, cutoff="omega1")
    assert tiny.notes == (
        "cutoff exceeds the long-wavelength bound for 16 field values starting at 1e-05 T",
    )


def test_sweep_turns_long_wavelength_warnings_into_one_note():
    # every excursion is caught and summarised; none reaches the caller
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = bfield_sweep(REFERENCE, (1.0, 10.0), 17, cutoff="omega2")
    assert len(result.notes) == 1
    assert not [w for w in caught if issubclass(w.category, LongWavelengthWarning)]


def test_midpoint_exponents_beyond_rwa():
    # fixed cutoff -> B^3, cutoff ~ B -> B^2, cutoff ~ sqrt(B) -> B^(5/2)
    expected = {"omega1": 3.0, "omega2": 2.0, "omega3": 2.5}
    for kind, value in expected.items():
        result = bfield_sweep(
            REFERENCE, (1.0, 10.0), 65, mode="beyond-rwa", cutoff=kind
        )
        assert midpoint_exponent(result) == pytest.approx(value, abs=2e-6), kind


def test_midpoint_exponents_with_rwa_match_closed_form():
    # the RWA scaling carries a log correction, so the slopes are compared
    # against the analytic derivative instead of a clean power
    frozen = {"omega1": 1.8463196137599835, "omega2": 2.0, "omega3": 1.954021791163339}
    for kind, value in frozen.items():
        result = bfield_sweep(
            REFERENCE, (1.0, 10.0), 65, mode="with-rwa", cutoff=kind
        )
        got = midpoint_exponent(result)
        assert got == pytest.approx(value, rel=1e-9), kind
        b_mid = result.b_values[len(result.b_values) // 2]
        analytic = rwa_exponent_analytic(REFERENCE, b_mid, cutoff=kind)
        assert got == pytest.approx(analytic, rel=1e-5), kind


def test_de_broglie_rwa_exponent_is_exactly_two():
    # cutoff proportional to B freezes the log argument: the B^2 of the
    # damping rate is the whole story, with no correction at all
    assert rwa_exponent_analytic(REFERENCE, 3.0, cutoff="omega2") == 2.0


def test_sweep_validation():
    with pytest.raises(DimensionMismatch, match="n_points must be at least 16, got 15"):
        bfield_sweep(REFERENCE, (1.0, 10.0), 15)
    with pytest.raises(DimensionMismatch):
        bfield_sweep(REFERENCE, (10.0, 1.0), 33)
    with pytest.raises(DimensionMismatch):
        bfield_sweep(REFERENCE, (0.0, 10.0), 33)
    # a span of one ulp rounds to repeated fields, refused before a slope
    # over them would raise a RuntimeWarning
    with pytest.raises(DimensionMismatch, match="strictly increasing"):
        bfield_sweep(REFERENCE, (1.0, 1.0000000000000002), 16)


def test_sweep_past_physical_memory_is_refused(monkeypatch):
    # the sweep's peak, 73 bytes a field, is checked against physical
    # memory before the grid is made; 16 pages of 1 KiB hold 224 fields and
    # refuse 225
    monkeypatch.setattr("vactrap.errors.os.sysconf", lambda name: {"SC_PAGE_SIZE": 1024}.get(name, 16))
    assert len(bfield_sweep(REFERENCE, (1.0, 10.0), 224).b_values) == 224
    with pytest.raises(GuardExceeded, match="a sweep of 225 fields .* physical memory"):
        bfield_sweep(REFERENCE, (1.0, 10.0), 225)


def test_sweep_result_validation():
    b = np.array([1.0, 2.0, 3.0])
    ok = np.zeros(3)
    with pytest.raises(DimensionMismatch, match="equal length"):
        SweepResult(
            b_values=b,
            omega_c_values=ok,
            delta_omega=ok,
            local_exponents=np.zeros(2),
            mode=ApproximationMode.BEYOND_RWA,
            cutoff_kind=CutoffKind.LARGEST_AMPLITUDE,
        )
    with pytest.raises(DimensionMismatch):
        SweepResult(
            b_values=np.array([1.0, 1.0, 3.0]),
            omega_c_values=ok,
            delta_omega=ok,
            local_exponents=ok,
            mode=ApproximationMode.BEYOND_RWA,
            cutoff_kind=CutoffKind.LARGEST_AMPLITUDE,
        )


def _sweep_by_config(config, b_range, n_points, mode=None, cutoff=None):
    """The sweep as a validated config and rate set at every field: the
    reference the plain-float sweep must equal bit for bit, errors included.

    Returns the ``SweepResult`` fields and, for the RWA, the closed-form
    exponent at the midpoint field.
    """
    the_mode = parse_mode(mode) if isinstance(mode, str) else (mode or config.mode)
    b_values = np.geomspace(*b_range, n_points)
    omegas = np.empty(n_points)
    shifts = np.empty(n_points)
    noted = np.zeros(n_points, dtype=bool)
    cutoffs = np.empty(n_points)
    for i, b in enumerate(b_values):
        kind = parse_cutoff_kind(cutoff) if isinstance(cutoff, str) else (cutoff or config.cutoff.kind)
        value = config.cutoff.value if kind is CutoffKind.EXPLICIT else None
        w = cyclotron_frequency(config.particle, b)
        variant = replace(
            config,
            trap=TrapSpec(omega_c=w, d_a=config.trap.d_a, d_c=config.trap.d_c),
            cutoff=CutoffSpec(kind=kind, value=value),
            mode=the_mode,
        )
        omegas[i] = variant.omega_c
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cutoffs[i] = omega_max = cutoff_frequency(variant)
        rates = _rate_set_at(variant, omega_max)
        shifts[i] = rates.delta_omega / rates.omega_c * omegas[i]
        if shifts[i] == 0.0:
            raise ConfigurationError(f"the frequency shift at B = {b:.6g} T rounds to zero")
        noted[i] = any(issubclass(c.category, LongWavelengthWarning) for c in caught)
    lnb, lny = np.log(b_values), np.log(np.abs(shifts))
    exponents = np.full(n_points, np.nan)
    exponents[1:-1] = (lny[2:] - lny[:-2]) / (lnb[2:] - lnb[:-2])
    notes = ()
    if noted.any():
        notes = (
            f"cutoff exceeds the long-wavelength bound for {np.count_nonzero(noted)} "
            f"field values starting at {b_values[noted].min():.4g} T",
        )
    r = float(cutoffs[n_points // 2] / omegas[n_points // 2])
    if variant.cutoff.kind is CutoffKind.DE_BROGLIE:
        dl = 0.0
    elif variant.cutoff.kind is CutoffKind.ZERO_POINT:
        dl = -r / (2.0 * (r - 1.0))
    else:
        dl = -r / (r - 1.0)
    return dict(
        omega_c_values=omegas,
        delta_omega=shifts,
        local_exponents=exponents,
        notes=notes,
        cutoff_kind=variant.cutoff.kind,
        rwa_midpoint=2.0 + dl / math.log(abs(r - 1.0)),
    )


def _outcome(compute):
    """``compute()``, or the type and message of the package error it raises."""
    try:
        return compute()
    except VactrapError as exc:
        return type(exc), str(exc)


PARITY_CONFIGS = {
    "sec-reference": REFERENCE,
    # a de Broglie cut-off past the long-wavelength bound at every field
    "lwa": parse_config_text(
        "trap.omega_c_rad_s = 9.42e11\ntrap.d_a_m = 5.0e-6\ntrap.d_c_m = 50e-9\n"
        "cutoff.kind = de-broglie"
    ),
    # an explicit cut-off and no geometry
    "explicit": parse_config_text(
        "trap.omega_c_rad_s = 9.42e11\ncutoff.kind = explicit\ncutoff.value_rad_s = 1.884e12"
    ),
    # a trap given by its field alone
    "b-field": parse_config_text(
        "trap.b_field_T = 5.36\ntrap.d_a_m = 5.0e-6\ntrap.d_c_m = 15e-9"
    ),
}


@pytest.mark.parametrize("mode", ["with-rwa", "beyond-rwa"])
@pytest.mark.parametrize("cutoff", [None, "omega1", "omega2", "omega3", "compton", "explicit"])
@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
def test_sweep_equals_the_per_field_config_path_bit_for_bit(name, cutoff, mode):
    config = PARITY_CONFIGS[name]
    b_range = (1.0, 100.0) if name == "lwa" else (1.0, 10.0)
    sweep = _outcome(lambda: bfield_sweep(config, b_range, 33, mode=mode, cutoff=cutoff))
    ref = _outcome(lambda: _sweep_by_config(config, b_range, 33, mode=mode, cutoff=cutoff))
    # refused only where the kind needs what the config lacks
    lacks = (cutoff == "explicit" and name != "explicit") or (
        name == "explicit" and cutoff in ("omega1", "omega2")
    )
    assert isinstance(sweep, tuple) is lacks
    if lacks:
        assert sweep == ref
        return
    for field in ("omega_c_values", "delta_omega", "local_exponents"):
        assert np.array_equal(
            getattr(sweep, field).view(np.int64), ref[field].view(np.int64)
        ), field
    assert sweep.notes == ref["notes"]
    assert sweep.cutoff_kind is ref["cutoff_kind"]
    b_mid = sweep.b_values[len(sweep.b_values) // 2]
    analytic = rwa_exponent_analytic(config, b_mid, cutoff=cutoff)
    assert np.float64(analytic).view(np.int64) == np.float64(ref["rwa_midpoint"]).view(np.int64)


# an explicit cut-off at exactly twice the trap frequency of a 5 T field,
# where the renormalized single-quantum shift, and so the RWA shift, is zero
_ZERO_AT_5T = parse_config_text(
    "trap.omega_c_rad_s = 9.42e11\ncutoff.kind = explicit\n"
    f"cutoff.value_rad_s = {2.0 * cyclotron_frequency(ELECTRON, 5.0)!r}"
)


@pytest.mark.parametrize(
    "config, b_range, mode, cutoff, error",
    [
        (REFERENCE, (1.0, 10.0), None, "explicit", "explicit cutoff needs a positive value"),
        (PARITY_CONFIGS["explicit"], (1.0, 10.0), None, "omega1", "needs trap.d_a"),
        (PARITY_CONFIGS["explicit"], (1.0, 10.0), None, "omega2", "needs trap.d_c"),
        (REFERENCE, (1e298, 1e299), None, None, "positive, finite frequency"),
        (REFERENCE, (1e150, 1e160), None, None, "damping rate at omega_c = 1.7588"),
        (_ZERO_AT_5T, (1.0, 5.0), "with-rwa", None, "at B = 5 T rounds to zero"),
        (PARITY_CONFIGS["explicit"], (1e140, 1e170), None, None, "at B = 1e+140 T rounds to zero"),
    ],
    ids=["explicit-no-value", "no-d_a", "no-d_c", "frequency-overflow", "rate-overflow",
         "zero-shift-last-field", "zero-shift-first-field"],
)
def test_sweep_errors_equal_the_per_field_config_path(config, b_range, mode, cutoff, error):
    sweep = _outcome(lambda: bfield_sweep(config, b_range, 16, mode=mode, cutoff=cutoff))
    ref = _outcome(lambda: _sweep_by_config(config, b_range, 16, mode=mode, cutoff=cutoff))
    assert isinstance(sweep, tuple) and issubclass(sweep[0], ConfigurationError)
    assert error in sweep[1]
    assert sweep == ref


def test_sweep_csv_layout(capsys):
    assert run_cli(["sweep-b", "--points", "17", "--cutoff", "omega1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "b_tesla,omega_c_rad_s,delta_omega_rad_s,local_exponent"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert first[3] == "nan"  # endpoint slope is undefined, and says so
    mid = lines[9].split(",")
    assert math.isfinite(float(mid[3]))


# ---------------------------------------------------------------- validity


def test_validity_report_reference_values():
    report = validity_report(REFERENCE)
    assert report.t_max == pytest.approx(0.035644301694089886, rel=1e-12)
    assert report.cutoff_within_lwa is True
    assert report.spin_negligible is True
    assert report.spin_ratio == pytest.approx(211985280.00038326, rel=1e-9)
    assert report.lwa_bound_hz == pytest.approx(6.086781e15, rel=1e-6)
    assert report.lwa_bound_rad_s == pytest.approx(report.cutoff_rad_s, rel=1e-12)
    assert report.notes == ()


def test_validity_report_rwa_has_no_horizon():
    config = reference_config(mode=ApproximationMode.WITH_RWA)
    report = validity_report(config)
    assert math.isinf(report.t_max)
    assert any("no positivity horizon" in n for n in report.notes)


def test_validity_report_zero_shift_cutoff():
    # an explicit cutoff at twice the trap frequency zeroes the renormalized
    # single-quantum shift, so the horizon recedes to infinity
    config = ExperimentConfig(
        particle=REFERENCE.particle,
        trap=REFERENCE.trap,
        cutoff=CutoffSpec(kind=CutoffKind.EXPLICIT, value=2.0 * REFERENCE.omega_c),
        mode=ApproximationMode.BEYOND_RWA,
    )
    report = validity_report(config)
    assert math.isinf(report.t_max)
    assert any("positivity never breaks" in n for n in report.notes)


def test_validity_report_flags_long_wavelength_violation():
    config = ExperimentConfig(
        particle=REFERENCE.particle,
        trap=TrapSpec(
            omega_c=REFERENCE.omega_c, d_a=REFERENCE.trap.d_a, d_c=50e-9
        ),
        cutoff=CutoffSpec(kind=CutoffKind.DE_BROGLIE),
        mode=ApproximationMode.BEYOND_RWA,
    )
    # the cut-off is resolved once: its excursion becomes one note and
    # no warning escapes the report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validity_report(config)
    assert report.cutoff_within_lwa is False
    assert sum("long-wavelength" in n for n in report.notes) == 1
    assert not [w for w in caught if issubclass(w.category, LongWavelengthWarning)]


def test_validity_report_text_and_csv(capsys):
    report = validity_report(REFERENCE)
    assert run_cli(["validate"]) == 0
    text = capsys.readouterr().out
    assert "positivity horizon" in text
    assert "spin coupling negligible: true" in text
    assert run_cli(["validate", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    lines = csv.strip().splitlines()
    assert lines[0] == "quantity,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["t_max_s"]) == report.t_max
    assert table["cutoff_within_lwa"] == "true"
    assert table["cutoff_kind"] == "zero-point"
