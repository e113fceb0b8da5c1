"""End-to-end command-line checks via run_cli (no subprocesses)."""
import warnings

import pytest

from vactrap.cli import run_cli
from vactrap.errors import LongWavelengthWarning
from vactrap.params import load_config
from vactrap.sweeps import table1


def test_no_command_is_a_usage_error(capsys):
    assert run_cli([]) == 1
    assert "usage" in capsys.readouterr().err


def test_rates_emits_the_closed_form_table(capsys):
    assert run_cli(["rates"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    assert "gamma_per_s,11.121199473377965" in lines
    assert any(line.startswith("relative_shift,") for line in lines)
    assert any(line.startswith("mode,beyond-rwa") for line in lines)
    value = dict(line.split(",") for line in lines[1:])
    assert float(value["total_frequency_rad_s"]) == pytest.approx(
        float(value["omega_c_rad_s"]) + float(value["delta_omega_per_s"]), rel=1e-14
    )


def test_rates_warns_once_past_the_long_wavelength_bound(capsys, tmp_path):
    # a de Broglie cut-off at d_c = 50 nm lies past the long-wavelength
    # bound; the table is read off one rate set, so the cut-off is resolved
    # (and the warning raised) once even when no repeat is suppressed
    config = tmp_path / "wide.cfg"
    config.write_text(
        "trap.omega_c_rad_s = 9.42e11\n"
        "trap.d_a_m = 5.0e-6\n"
        "trap.d_c_m = 50e-9\n"
        "cutoff.kind = de-broglie\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["rates", "--config", str(config)]) == 0
    assert [w.category for w in caught] == [LongWavelengthWarning]
    assert capsys.readouterr().out.startswith("quantity,value\n")


def test_table_command_matches_library_route(capsys, tmp_path):
    assert run_cli(["table1"]) == 0
    out = capsys.readouterr().out
    report = table1(load_config("sec-reference"))
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(label, float(rwa), float(beyond)) for label, rwa, beyond in rows] == list(
        zip(report.cutoff_labels, report.with_rwa, report.beyond_rwa)
    )
    target = tmp_path / "grid.csv"
    assert run_cli(["table1", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


def test_sweep_command_csv_and_exponent_note(capsys):
    assert run_cli(["sweep-b", "--points", "17", "--cutoff", "omega1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == (
        "b_tesla,omega_c_rad_s,delta_omega_rad_s,local_exponent"
    )
    assert "midpoint exponent:" in captured.err
    assert float(captured.err.split("midpoint exponent:")[1].strip()) == pytest.approx(
        3.0, abs=1e-3
    )


def test_sweep_command_svg(capsys):
    assert run_cli(
        ["sweep-b", "--points", "17", "--cutoff", "omega1", "--format", "svg"]
    ) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("<svg")
    assert "</svg>" in out


def test_evolve_command_beyond_rwa(capsys):
    assert run_cli(
        ["evolve", "--dim", "8", "--alpha", "0.5", "--t-end", "5", "--points", "21"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "time,trace_dev,herm_dev,min_eig,guard_pop,x,p,n,witness"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(0.5 * 2**0.5, rel=1e-6)  # <x> at t=0


def test_evolve_command_with_rwa(capsys):
    assert run_cli(
        [
            "evolve", "--mode", "with-rwa", "--dim", "8", "--alpha", "0.5",
            "--t-end", "5", "--points", "21",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    witness = [float(line.split(",")[8]) for line in lines[1:]]
    # a coherent state carries two-quantum coherence from the start; the
    # excitation-conserving generator only lets it rotate and decay
    assert abs(witness[0]) > 0.1


def test_evolve_command_svg(capsys):
    assert run_cli(
        ["evolve", "--format", "svg", "--dim", "16", "--t-end", "5", "--points", "11"]
    ) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_witness_command_headers_and_contrast(capsys):
    assert run_cli(
        ["witness", "--dim", "10", "--nbar", "0.2", "--t-end", "2", "--points", "21"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "time,beyond_rwa,with_rwa"
    assert len(lines) == 22
    beyond = [abs(float(line.split(",")[1])) for line in lines[1:]]
    rwa = [abs(float(line.split(",")[2])) for line in lines[1:]]
    assert max(beyond) > 1e-9  # beyond-RWA generated coherence
    assert max(rwa) < 1e-10  # the RWA column stays at zero throughout


def test_witness_command_svg(capsys):
    assert run_cli(
        [
            "witness", "--dim", "10", "--nbar", "0.2", "--t-end", "2",
            "--points", "21", "--format", "svg",
        ]
    ) == 0
    assert capsys.readouterr().out.lstrip().startswith("<svg")


def test_validate_text_and_csv(capsys):
    assert run_cli(["validate"]) == 0
    text = capsys.readouterr().out
    assert "positivity horizon" in text
    assert run_cli(["validate", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0] == "quantity,value"
    assert "cutoff_within_lwa,true" in csv


def test_pt_compare_ratio_column(capsys):
    assert run_cli(["pt-compare"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "cutoff_ratio,omega_max_rad_s,pt_shift_per_s,me_shift_per_s,ratio"
    assert len(lines) == 6  # the five default cutoff ratios
    for line in lines[1:]:
        assert float(line.split(",")[4]) == pytest.approx(3.0, rel=1e-9)


def test_bath_oracle_command(capsys):
    assert run_cli(["bath-oracle"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "quantity,expected,fitted,relative_error,pass"
    assert lines[1].endswith(",pass")
    assert lines[2].endswith(",pass")
    assert "norm drift:" in captured.err


@pytest.mark.parametrize(
    "argv, form",
    [
        (["rates"], "csv"),
        (["table1"], "csv"),
        (["validate"], "text"),
        (["pt-compare"], "csv"),
        (["bath-oracle"], "csv"),
    ],
)
def test_plotless_commands_note_what_they_emit(argv, form, capsys):
    # --format svg on a command without a plot writes the same report as
    # without it and says which form that report takes
    assert run_cli(argv) == 0
    plain = capsys.readouterr()
    assert run_cli([*argv, "--format", "svg"]) == 0
    fallback = capsys.readouterr()
    assert fallback.out == plain.out
    assert fallback.err == f"note: {argv[0]} has no plot form; emitting {form}\n" + plain.err


@pytest.mark.parametrize("command", ["evolve", "witness", "bath-oracle"])
def test_config_is_a_usage_error_where_unused(command, capsys):
    # these subcommands take their inputs from flags, not from a config
    assert run_cli([command, "--config", "sec-reference"]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert run_cli(["rates", "--config", "/nonexistent/config.cfg"]) == 1
    assert "input error" in capsys.readouterr().err


def test_guard_band_failure_exit_code(capsys):
    # nbar = 1 against a 16-level space: the initial thermal tail already
    # overfills the guard band, which is a numerical-guard failure (2),
    # not an input error (1)
    assert run_cli(["witness", "--dim", "16", "--nbar", "1.0"]) == 2
    assert "numerical guard" in capsys.readouterr().err


def test_unknown_cutoff_name(capsys):
    assert run_cli(["sweep-b", "--points", "17", "--cutoff", "bogus"]) == 1
    assert "input error" in capsys.readouterr().err


def test_dimension_too_small(capsys):
    assert run_cli(["evolve", "--dim", "1", "--t-end", "1"]) == 1
    err = capsys.readouterr().err
    assert "input error" in err


def test_unwritable_output_path(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli(["rates", "--out", str(target)]) == 1
    assert "cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bath-oracle", "--omega-min", "5", "--omega-max", "0.2"],
        ["bath-oracle", "--gamma-target", "0"],
        ["evolve", "--dim", "6", "--alpha", "1e200"],
        ["evolve", "--dim", "6", "--gamma", "nan"],
        ["evolve", "--dim", "6", "--alpha", "nan"],
        ["witness", "--dim", "6", "--nbar", "nan"],
        ["bath-oracle", "--omega-min", "-1", "--omega-max", "0.5", "--modes", "8"],
        ["evolve", "--t-end", "inf"],
        ["evolve", "--t-end", "-1"],
        ["evolve", "--points", "1"],
        ["bath-oracle", "--modes", "8", "--duration", "-5"],
        ["bath-oracle", "--modes", "8", "--duration", "nan"],
        ["bath-oracle", "--modes", "8", "--duration", "0"],
        ["bath-oracle", "--modes", "8", "--duration", "inf"],
        ["sweep-b", "--points", "16", "--b-max", "inf"],
        ["sweep-b", "--points", "16", "--b-max", "1e300"],
        ["sweep-b", "--points", "16", "--b-max", "1e200"],
        ["bath-oracle", "--modes", "4", "--gamma-target", "1", "--duration", "1e-300"],
        ["bath-oracle", "--modes", "2", "--duration", "1e300"],
    ],
)
def test_out_of_domain_values_are_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("vactrap: input error")


@pytest.mark.parametrize(
    "argv",
    [
        ["pt-compare", "--ratios", "1e70"],  # the order-5 PT term overflows
        ["pt-compare", "--ratios", "1e40"],  # the master-equation shift rounds to 0
        ["sweep-b", "--b-max", "1e70"],  # ln|1 +- W/w| rounds to 0 past Compton
        ["sweep-b", "--b-min", "1e-300"],  # the damping rate underflows to 0
        # the dense generator (381 GiB) is refused before it is allocated
        ["evolve", "--dim", "400", "--points", "3"],
    ],
)
def test_closed_form_range_ends_are_one_line_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vactrap: input error: ")
    assert captured.err.count("\n") == 1


_SPAN_GUARD = "||G||_1 (t1 - t0) = "
_GUARDED_RUNS = [
    (["evolve", "--dim", "6", "--points", "3", "--t-end", "1e300"], _SPAN_GUARD),
    (["evolve", "--dim", "6", "--gamma", "1e300", "--points", "11"], _SPAN_GUARD),
    (["witness", "--dim", "6", "--t-end", "1e300", "--points", "3"], _SPAN_GUARD),
    (["evolve", "--dim", "12", "--points", "3", "--t-end", "1e12"], "trace drift"),
    (["evolve", "--dim", "20", "--points", "3", "--t-end", "1e300"], _SPAN_GUARD),
]


@pytest.mark.parametrize(
    "argv, cause", _GUARDED_RUNS, ids=[f"argv{k}" for k in range(len(_GUARDED_RUNS))]
)
def test_overflow_or_trace_drift_is_a_numerical_guard(argv, cause, capsys):
    # these generators take the stepper.  Where ||G||_1 (t1 - t0) reaches
    # 1/eps, the span is refused before any propagation; below that, over
    # dim 12's span of 1e12, the stepper rounds the trace away, and the
    # trace gate names both an unstable generator and a span past the
    # propagator's rounding as causes.  Either ends the run as a numerical
    # guard, exit 2
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"vactrap: numerical guard: {cause}")
    assert "rounding" in err
    if cause == _SPAN_GUARD:
        assert "reaches 1/eps" in err
    else:
        assert "spectral_abscissa" in err
    assert "Traceback" not in err


def test_negative_guard_band_population_names_a_growing_mode(capsys):
    # at these negative shifts the dim-40 beyond-RWA generator has a growing
    # mode (spectral abscissa +0.75), which drives the guard-band population
    # negative; its magnitude passes the limit first at t = 130
    argv = ["evolve", "--gamma", "0.01", "--delta-plus", "-0.02", "--delta-minus", "-0.015",
            "--dim", "40", "--t-end", "150", "--points", "16"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("vactrap: numerical guard: guard-band population -")
    assert "at t = 130.0;" in err
    assert "growing mode" in err and "spectral_abscissa" in err
    assert "enlarge the truncation" not in err
    assert "Traceback" not in err


def test_bad_flag_value(capsys):
    assert run_cli(["evolve", "--dim", "not-a-number"]) == 1
    assert "error" in capsys.readouterr().err
