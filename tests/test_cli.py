"""End-to-end command-line checks via run_cli (no subprocesses)."""
import warnings

import pytest

from vactrap.cli import run_cli
from vactrap.errors import LongWavelengthWarning
from vactrap.params import load_config
from vactrap.sweeps import table1, table1_csv


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
    assert out == table1_csv(table1(load_config("sec-reference")))
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
    ],
)
def test_out_of_domain_values_are_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("vactrap: input error")


def test_bad_flag_value(capsys):
    assert run_cli(["evolve", "--dim", "not-a-number"]) == 1
    assert "error" in capsys.readouterr().err
