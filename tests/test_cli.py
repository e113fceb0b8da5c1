"""End-to-end command-line checks via run_cli (no subprocesses)."""
import io
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cli_contract
from vactrap import _svg, rates
from vactrap.cli import build_parser, run_cli
from vactrap.params import load_config, parse_config_text
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
    # the four shift rows are the closed forms at the printed floats
    args = [float(value[key]) for key in ("gamma_per_s", "omega_c_rad_s", "omega_max_rad_s")]
    for kind, pair in (
        ("raw", rates.level_shifts_raw(*args)),
        ("ren", rates.level_shifts_renormalized(*args)),
    ):
        for sign, shift in zip(("plus", "minus"), pair):
            assert value[f"delta_{sign}_{kind}_per_s"] == repr(shift)


def _long_wavelength_run(command, action, capsys, tmp_path):
    """Run ``command`` on a de Broglie cut-off at d_c = 50 nm, past the
    long-wavelength bound, with every warning under the filter ``action``;
    return its stdout, its stderr and the warnings that escaped it."""
    config = tmp_path / "wide.cfg"
    config.write_text(
        "trap.omega_c_rad_s = 9.42e11\n"
        "trap.d_a_m = 5.0e-6\n"
        "trap.d_c_m = 50e-9\n"
        "cutoff.kind = de-broglie\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert run_cli([command, "--config", str(config)]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err, caught


_LWA_NOTE = (
    "note: cutoff 1.220e+17 rad/s exceeds the long-wavelength bound 3.824e+16 rad/s; "
    "dipole coupling is strained\n"
)

def test_rates_warns_once_past_the_long_wavelength_bound(capsys, tmp_path):
    # the table is read off one rate set, so the cut-off is resolved once,
    # and its verdict reaches stderr as one note line, not as a warning
    out, err, caught = _long_wavelength_run("rates", "always", capsys, tmp_path)
    assert err == _LWA_NOTE
    assert caught == []
    assert out.startswith("quantity,value\n")


def test_table1_notes_the_long_wavelength_bound_once(capsys, tmp_path):
    # both modes read the one de Broglie cut-off; its verdict is one note
    out, err, caught = _long_wavelength_run("table1", "always", capsys, tmp_path)
    assert err == _LWA_NOTE
    assert caught == []
    assert out.startswith("cutoff,with_rwa,beyond_rwa\n")


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("command", ["rates", "table1"])
def test_long_wavelength_notes_do_not_depend_on_the_warning_filter(
    command, action, capsys, tmp_path
):
    # the verdict is a value of the report, so no filter moves the output
    out, err, caught = _long_wavelength_run(command, action, capsys, tmp_path)
    assert err == _LWA_NOTE
    assert caught == []
    assert out == _long_wavelength_run(command, "always", capsys, tmp_path)[0]


def test_a_failing_report_writes_only_its_error_line(capsys, tmp_path):
    # the largest-amplitude cut-off is noted past the bound, then the de
    # Broglie one has no orbit diameter: the error is the whole of stderr
    config = tmp_path / "no-orbit.cfg"
    config.write_text("trap.omega_c_rad_s = 9.42e11\ntrap.d_a_m = 1e-12\n")
    assert run_cli(["table1", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "vactrap: input error: de-broglie cutoff needs trap.d_c\n"


def test_other_warnings_pass_through_the_command(monkeypatch, capsys):
    # a warning the command did not expect is shown, not turned into a note
    def rate_set_at(config, omega_max):
        warnings.warn("unrelated", UserWarning)
        return rates._rate_set_at(config, omega_max)

    monkeypatch.setattr("vactrap.cli._rate_set_at", rate_set_at)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["rates"]) == 0
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, "unrelated")]
    assert capsys.readouterr().err == ""


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


def test_evolve_herm_dev_column_reads_zero_on_every_row(capsys):
    # snapshots are Hermitian by construction; the column is the text 0.0
    argv = ["evolve", "--dim", "10", "--alpha", "0.5", "--t-end", "2", "--points", "9"]
    assert run_cli(argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 9
    assert [row.split(",")[2] for row in rows] == ["0.0"] * 9


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


def test_line_plot_degenerate_series_and_label_count():
    # a series with no finite value draws no polyline on a unit y range; a
    # constant one is drawn on a range padded around it
    blank = _svg.line_plot([0.0, 1.0, 2.0], [[math.nan, math.inf, math.nan]], ["blank"])
    assert "<polyline" not in blank and ">blank</text>" in blank
    flat = _svg.line_plot([0.0, 1.0, 2.0], [[2.0, 2.0, 2.0]], ["flat"])
    assert flat.count("<polyline") == 1 and ">2</text>" in flat
    with pytest.raises(ValueError, match="2 series but 1 labels"):
        _svg.line_plot([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], ["one"])


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


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_an_unreadable_config_is_a_one_line_input_error(tmp_path, kind, capsys):
    # a path that exists but cannot be read as UTF-8 text is refused like
    # a missing one, not reported as an output failure or a traceback
    path = tmp_path / "trap.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00")
    assert run_cli(["rates", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vactrap: input error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


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
        # the dense ladder operators (7.5e4 GiB) are refused before they
        # are allocated
        ["evolve", "--dim", "1000000", "--points", "3"],
        # a span of one ulp rounds to repeated fields, refused before any
        # slope is taken (a RuntimeWarning fails the test)
        ["sweep-b", "--b-min", "1", "--b-max", "1.0000000000000002", "--points", "16"],
        # gamma_target * dw overflows to inf, refused as a coupling
        ["bath-oracle", "--modes", "3", "--gamma-target", "1e308"],
    ],
)
def test_closed_form_range_ends_are_one_line_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vactrap: input error: ")
    assert captured.err.count("\n") == 1


_HEAVY = "particle.mass_kg = 1e280\ntrap.omega_c_rad_s = 9.42e11\n"


@pytest.mark.parametrize(
    "command, config, words",
    [
        # kappa**2 of the perturbation constants overflows on a light particle
        ("pt-compare", "particle.mass_kg = 1e-300\ntrap.omega_c_rad_s = 1e10\n",
         "perturbation constant delta1 is not finite"),
        # omega_c**2 of the damping rate underflows to zero, before the
        # order-3 shift integral's
        ("pt-compare", "trap.omega_c_rad_s = 1e-300\n",
         "damping rate at omega_c = 1e-300 must be positive and finite, got 0.0"),
        # the damping rate's denominator underflows to zero
        ("rates", "particle.mass_kg = 1e-320\ntrap.omega_c_rad_s = 1e10\n",
         "damping rate at omega_c = 10000000000.0 must be positive and finite, got inf"),
        # the long-wavelength bound of the zero-point cut-off overflows
        *[(command, _HEAVY, "long-wavelength bound of mass 1e+280 kg at omega_c = "
           "942000000000.0 must be positive and finite, got inf")
          for command in ("rates", "validate")],
        # below an explicit cut-off, the damping rate is subnormal
        *[(command, _HEAVY + "cutoff.kind = explicit\ncutoff.value_rad_s = 1e14\n",
           "damping rate at omega_c = 942000000000.0 must be at least "
           "2.2250738585072014e-308, got 1.013072733618227e-309")
          for command in ("rates", "pt-compare", "validate")],
    ],
    ids=["pt-light", "pt-slow", "rates-tiny-mass", "rates-heavy", "validate-heavy",
         "rates-subnormal-rate", "pt-subnormal-rate", "validate-subnormal-rate"],
)
def test_configs_past_the_float_range_are_one_line_input_errors(
    command, config, words, capsys, tmp_path
):
    path = tmp_path / "extreme.cfg"
    path.write_text(config)
    assert run_cli([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"vactrap: input error: {words}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["rates", "--config", "heavy.cfg"], 1, "input error"),
        (["table1", "--config", "heavy.cfg"], 1, "input error"),
        (["pt-compare", "--ratios", "2"], 1, "input error"),
        (["bath-oracle", "--modes", "1"], 1, "input error"),
        (["bath-oracle", "--modes", "8"], 2, "numerical guard"),
        # the report is computed, but its file cannot be written
        (["bath-oracle", "--out", "no/such/dir/out.csv"], 1, "cannot write output"),
    ],
    ids=["rates-heavy", "table1-heavy", "pt-resonance", "bath-one-mode", "bath-rabi",
         "bath-unwritable"],
)
def test_a_refused_plotless_command_writes_only_its_error_line(
    argv, code, error, capsys, monkeypatch, tmp_path
):
    # the note naming the form written in place of a plot follows the
    # report, like the report's own stderr lines: a command refused before
    # its report is written notes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heavy.cfg").write_text(_HEAVY)
    assert run_cli([*argv, "--format", "svg"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"vactrap: {error}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--dim", "4", "--points", "1000000000000"],
        ["witness", "--points", "1000000000000"],
        ["sweep-b", "--points", "1000000000000"],
    ],
)
def test_a_grid_past_physical_memory_is_a_one_line_input_error(argv, capsys):
    # the time or field grid is refused before it is allocated
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vactrap: input error: ")
    assert captured.err.count("\n") == 1 and "physical memory" in captured.err


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


def test_in_process_calls_share_no_state(capsys):
    # the parser is built once per process: what one call parsed, refused or
    # printed help for must not reach the next call
    assert build_parser() is build_parser()
    assert run_cli(["pt-compare", "--ratios", "2.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert run_cli(["pt-compare"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["5.0", "20.0", "80.0", "320.0", "1000.0"]
    assert run_cli(["rates", "--points", "3"]) == 1
    capsys.readouterr()
    assert run_cli(["rates"]) == 0
    assert capsys.readouterr().out.startswith("quantity,value\nmode,")
    assert run_cli(["evolve", "--help"]) == 0
    assert "--alpha" in capsys.readouterr().out
    assert run_cli(["rates"]) == 0
    assert capsys.readouterr().out.startswith("quantity,value\nmode,")


def test_the_contract_tables_parse():
    # every argv row of tests/cli_contract.py parses, names a config file the
    # tool writes, and every config file parses: a mistyped row fails here,
    # not only in the job that runs the table
    for name in cli_contract.CONFIGS:
        parse_config_text(cli_contract.config_text(name))
    tables = {
        "NO_SCIPY": [(name, argv) for name, _, _, argv in cli_contract.NO_SCIPY],
        "PARITY": cli_contract.PARITY,
        "NUMERIC": cli_contract.NUMERIC,
    }
    for table, rows in tables.items():
        names = [name for name, _ in rows]
        assert len(set(names)) == len(names), f"{table} repeats a row name"
        for name, argv in rows:
            try:
                args = build_parser().parse_args(argv.split())
            except SystemExit as exc:
                assert exc.code == 0 and "--help" in argv, f"{table} row {name}: {argv}"
                continue
            config = getattr(args, "config", "sec-reference")
            assert config in {"sec-reference", "/", *cli_contract.CONFIGS}, (
                f"{table} row {name} names no config file of the tool: {config}"
            )


# ---------------------------------------------------- the argv contract

# reference values of the config fields, each drawn within 1, 10 or 300
# decades of its own
_FIELDS = {
    "particle.mass_kg": 9.1093837139e-31,
    "particle.charge_C": -1.602176634e-19,
    "trap.omega_c_rad_s": 9.42e11,
    "trap.b_field_T": 5.36,
    "trap.d_a_m": 5.0e-6,
    "trap.d_c_m": 15e-9,
}
_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-310, -5e-324)


def _near(reference):
    # mostly within one decade, where most runs succeed
    return st.sampled_from((1, 1, 1, 10, 300)).flatmap(
        lambda decades: st.floats(-decades, decades)
    ).map(lambda exponent: reference * 10.0**exponent)


def _number(reference):
    """A value within 1, 10 or 300 decades of ``reference`` half the time;
    otherwise its negative, or one of nan, +-inf, 0, a negative and the
    subnormals."""
    return st.one_of(_near(reference), st.one_of(_near(-reference), st.sampled_from(_SPECIAL)))


@st.composite
def _drawn_config(draw):
    fields = draw(st.dictionaries(st.sampled_from(sorted(_FIELDS)), st.just(None)))
    lines = [f"{key} = {draw(_near(_FIELDS[key]))!r}" for key in sorted(fields)]
    if "trap.b_field_T" not in fields or draw(st.booleans()):
        lines.append(f"trap.omega_c_rad_s = {draw(_near(9.42e11))!r}")
    kind = draw(st.sampled_from(
        ("zero-point", "de-broglie", "largest-amplitude", "compton", "explicit")))
    lines.append(f"cutoff.kind = {kind}")
    if kind == "explicit":
        lines.append(f"cutoff.value_rad_s = {draw(_near(3.8e16))!r}")
    lines.append(f"mode = {draw(st.sampled_from(('with-rwa', 'beyond-rwa')))}")
    # a drawn key may repeat trap.omega_c_rad_s, which the parser refuses
    return "".join(line + "\n" for line in lines)


_CONFIG = st.one_of(
    st.none(),
    st.sampled_from(sorted(cli_contract.CONFIGS)).map(cli_contract.config_text),
    _drawn_config(),
)
_FORMAT = st.sampled_from(((), ("--format", "csv"), ("--format", "svg")))
_SCALED = {"--gamma": 1e-2, "--delta-plus": 5e-3, "--delta-minus": 8e-3}
_COMMANDS = {
    "rates": ({}, True),
    "table1": ({}, True),
    "validate": ({}, True),
    "sweep-b": ({"--b-min": _number(1.0), "--b-max": _number(10.0),
                 "--cutoff": st.sampled_from(("omega1", "omega2", "omega3", "compton",
                                              "explicit")),
                 "--mode": st.sampled_from(("with-rwa", "beyond-rwa"))}, True),
    "pt-compare": ({"--ratios": st.lists(_number(5.0), min_size=1, max_size=3)}, True),
    "evolve": ({**{flag: _number(value) for flag, value in _SCALED.items()},
                "--alpha": _number(1.0), "--t-end": _number(50.0),
                "--mode": st.sampled_from(("with-rwa", "beyond-rwa"))}, False),
    "witness": ({**{flag: _number(value) for flag, value in _SCALED.items()},
                 "--t-end": _number(10.0)}, False),
    "bath-oracle": ({"--omega-min": _number(0.2), "--omega-max": _number(5.0),
                     "--gamma-target": _number(5e-3), "--duration": _number(80.0)}, False),
}
# what each command always takes: counts within these bounds, sampled so
# that a refused count comes about one time in ten (st.integers favours the
# ends), and a thermal start that fits them (the default nbar of 1
# overfills dim 10)
_DIMS = st.sampled_from((6, *range(2, 11), *range(2, 11), 0, 1))
_POINTS = st.sampled_from((17, *range(34)))
_SIZES = {
    "sweep-b": {"--points": _POINTS},
    "evolve": {"--dim": _DIMS, "--points": _POINTS},
    "witness": {"--dim": _DIMS, "--points": _POINTS, "--nbar": _number(0.2)},
    "bath-oracle": {"--modes": st.sampled_from((8, *range(2, 9), *range(2, 9), 0, 1))},
}


@st.composite
def _invocations(draw):
    """An argv over the eight subcommands and the config text it reads."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options, takes_config = _COMMANDS[command]
    chosen = draw(st.fixed_dictionaries(_SIZES.get(command, {}), optional=options))
    argv = [command, *draw(_FORMAT)]
    for flag, value in chosen.items():
        values = value if isinstance(value, list) else [value]
        # "--flag=value" keeps a value such as -inf from reading as a flag
        argv += [f"{flag}={values[0]}", *map(str, values[1:])]
    return argv, draw(_CONFIG) if takes_config else None


# the documented non-finite values of a successful report
_DOCUMENTED = re.compile(r"t_max_s,inf|positivity horizon +inf s")
_NON_FINITE = re.compile(r"\b(?:nan|inf)\b")


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation=_invocations())
# a fault once shipped: a damping rate that underflowed to 0 gave `nan` in
# every sweep cell and a nan midpoint exponent, with exit 0
@example(invocation=(["sweep-b", "--cutoff", "compton", "--points", "16"],
                     cli_contract.config_text("tiny-charge.cfg")))
# a refused command once noted the form of a report it never wrote
@example(invocation=(["pt-compare", "--format", "svg", "--ratios", "2"], None))
# the dense ladder operators and initial state once ended in a numpy
# allocation traceback, before any guard ran
@example(invocation=(["evolve", "--dim", "1000000", "--points", "3"], None))
@example(invocation=(["witness", "--dim", "1000000", "--points", "3"], None))
def test_every_argv_keeps_the_exit_code_contract(invocation, tmp_path_factory):
    # exit 0, 1 or 2; a failure writes one error line, after at most usage
    # lines, and no traceback; no warning reaches stderr; a success
    # prints no nan or inf but the documented horizon and end exponents
    argv, config = invocation
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "contract.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == [], argv
    assert "Traceback" not in err and "Warning" not in err, argv
    if code == 0:
        lines = out.splitlines()
        if argv[0] == "sweep-b" and lines[0].startswith("b_tesla,"):
            # the central-difference exponent has no value at either end
            lines = [lines[1].removesuffix(",nan"), *lines[2:-1], lines[-1].removesuffix(",nan")]
        shown = [line for line in lines + err.splitlines() if not _DOCUMENTED.fullmatch(line)]
        assert not [line for line in shown if _NON_FINITE.search(line)], argv
        return
    assert code in (1, 2), argv
    assert out == "", argv
    assert cli_contract.error_alone(err), argv
