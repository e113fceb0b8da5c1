"""The CLI's CSV cell format: numeric cells read back to the exact double."""
import math

import numpy as np
import pytest

from vactrap.bath import BathFitResult
from vactrap.cli import _csv_text, _oracle_report_csv, run_cli
from vactrap.evolve import integrate
from vactrap.liouville import FockSpace, build_fock_operators, build_redfield_generator
from vactrap.observables import make_state, series_from_record
from vactrap.params import load_config
from vactrap.rates import RateSet
from vactrap.sweeps import bfield_sweep


def _cells(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    assert text.endswith("\n") and all(lines)
    header, *rows = (line.split(",") for line in lines)
    assert all(len(row) == len(header) for row in rows)
    assert not any("np." in cell for row in rows for cell in row)
    return header, rows


def _run(argv: list[str], capsys) -> tuple[list[str], list[list[str]]]:
    assert run_cli(argv) == 0
    return _cells(capsys.readouterr().out)


def _same_double(cell: str, value) -> bool:
    back = float(cell)
    if math.isnan(value):
        return math.isnan(back)
    return np.float64(back).tobytes() == np.float64(value).tobytes()


def test_sweep_csv_cells_round_trip(capsys):
    header, rows = _run(["sweep-b", "--points", "16"], capsys)
    result = bfield_sweep(load_config("sec-reference"), (1.0, 10.0), 16)
    columns = (result.b_values, result.omega_c_values, result.delta_omega,
               result.local_exponents)
    assert len(rows) == 16
    for i, row in enumerate(rows):
        assert all(_same_double(cell, col[i]) for cell, col in zip(row, columns))
    assert rows[0][3] == rows[-1][3] == "nan"


def test_record_csv_cells_round_trip(capsys):
    header, rows = _run(
        ["evolve", "--dim", "10", "--alpha", "0.5", "--t-end", "3", "--points", "13"], capsys
    )
    space = FockSpace(dim=10)
    record = integrate(
        build_redfield_generator(space, RateSet.scaled(1e-2, 5e-3, 8e-3)),
        make_state("coherent", space, alpha=0.5),
        (0.0, 3.0),
        n_points=13,
    )
    assert header == ["time", "trace_dev", "herm_dev", "min_eig", "guard_pop",
                      "x", "p", "n", "witness"]
    assert np.array_equal(record.rho, record.rho.conj().transpose(0, 2, 1))
    columns = (record.times, record.trace_dev, np.zeros(13), record.min_eig,
               record.guard_pop,
               *(series_from_record(record, name, space).values for name in ("x", "p", "n", "X")))
    assert len(rows) == 13
    for i, row in enumerate(rows):
        assert all(_same_double(cell, col[i]) for cell, col in zip(row, columns))
    # each cell is also the one text _csv_text writes for its double, the
    # shortest that reads back, so no renderer can move the bytes alone
    assert all(cell == repr(float(cell)) for row in rows for cell in row)
    # the x column against an independent trace of the stored states
    x = build_fock_operators(space).x
    assert [float(row[5]) for row in rows] == pytest.approx(
        np.einsum("kij,ji->k", record.rho, x).real, abs=1e-14
    )


def test_oracle_report_cells_round_trip():
    times = np.linspace(0.0, 1.0, 4)
    expected = (np.float64(5e-3), np.float64(-2.5e-4))
    result = BathFitResult(
        gamma_fit=np.float64(0.0049871),
        shift_fit=np.float64(-2.61e-4),
        gamma_expected=expected[0],
        shift_expected=expected[1],
        norm_drift=1e-14,
        times=times,
        excited_population=np.exp(-times),
        mean_lowering=np.exp(-1j * times),
    )
    header, rows = _cells(_oracle_report_csv(result))
    assert header == ["quantity", "expected", "fitted", "relative_error", "pass"]
    for row, fitted, want in zip(rows, (result.gamma_fit, result.shift_fit), expected):
        assert _same_double(row[2], fitted)
        assert _same_double(row[1], want)
        assert _same_double(row[3], abs(fitted - want) / abs(want))
        assert row[4] == "pass"


def test_column_rule_writes_the_bytes_of_the_cell_rule():
    # a numpy column is rendered in one pass, a mixed one cell by cell; both
    # give each cell the text of the one rule, str unchanged, else
    # repr(float(v))
    tiny = 5e-324
    mixed = ["label", 3, 1.5, np.float64(0.1), -0.0, math.nan, math.inf, -math.inf, tiny,
             np.float64(-2.2250738585072014e-308), 10**20, np.int64(-7)]
    doubles = np.array([cell for cell in mixed if not isinstance(cell, str)], dtype=float)
    columns = (mixed[1:], doubles, np.arange(len(doubles)), doubles.astype(np.float32))
    text = _csv_text(("a", "b", "c", "d"), columns)
    expected = "a,b,c,d\n" + "".join(
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n"
        for row in zip(*columns)
    )
    assert text == expected
    assert _csv_text(("a",), [mixed]) == "a\n" + "".join(
        (v if isinstance(v, str) else repr(float(v))) + "\n" for v in mixed
    )
    assert "-0.0" in text and "5e-324" in text and "-inf" in text and "nan" in text
