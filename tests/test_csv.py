"""The shared CSV cell format: numeric cells read back to the exact double."""
import math

import numpy as np
import pytest

from vactrap.bath import BathFitResult, oracle_report_csv
from vactrap.evolve import integrate, record_to_csv
from vactrap.liouville import FockSpace, build_fock_operators, build_redfield_generator
from vactrap.observables import make_state
from vactrap.params import ApproximationMode, CutoffKind
from vactrap.rates import RateSet
from vactrap.sweeps import SweepResult, sweep_csv


def _cells(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    assert text.endswith("\n") and all(lines)
    header, *rows = (line.split(",") for line in lines)
    assert all(len(row) == len(header) for row in rows)
    assert not any("np." in cell for row in rows for cell in row)
    return header, rows


def _same_double(cell: str, value) -> bool:
    back = float(cell)
    if math.isnan(value):
        return math.isnan(back)
    return np.float64(back).tobytes() == np.float64(value).tobytes()


def test_sweep_csv_cells_round_trip():
    b = np.geomspace(1.0, 10.0, 16)
    exponents = np.full(16, np.nan)
    exponents[1:-1] = np.float64(2.0) + np.sin(b[1:-1]) / 3.0
    result = SweepResult(
        b_values=b,
        omega_c_values=1.7588e11 * b,
        delta_omega=-np.float64(1e-5) * b**2,
        local_exponents=exponents,
        mode=ApproximationMode.WITH_RWA,
        cutoff_kind=CutoffKind.DE_BROGLIE,
    )
    header, rows = _cells(sweep_csv(result))
    columns = (result.b_values, result.omega_c_values, result.delta_omega, exponents)
    assert len(rows) == 16
    for i, row in enumerate(rows):
        assert all(_same_double(cell, col[i]) for cell, col in zip(row, columns))
    assert rows[0][3] == rows[-1][3] == "nan"


def test_record_csv_cells_round_trip():
    space = FockSpace(dim=10)
    record = integrate(
        build_redfield_generator(space, RateSet.scaled(1e-2, 5e-3, 8e-3)),
        make_state("coherent", space, alpha=0.5),
        (0.0, 3.0),
        n_points=13,
    )
    x = build_fock_operators(space).x
    header, rows = _cells(record_to_csv(record, {"x": x}))
    assert header == ["time", "trace_dev", "herm_dev", "min_eig", "guard_pop", "x"]
    columns = (record.times, record.trace_dev, record.herm_dev, record.min_eig,
               record.guard_pop, np.einsum("kij,ji->k", record.rho, x).real)
    for i, row in enumerate(rows):
        assert all(_same_double(cell, col[i]) for cell, col in zip(row[:5], columns))
    assert [float(row[5]) for row in rows] == pytest.approx(columns[5], abs=1e-14)


@pytest.mark.parametrize("with_reference", [True, False])
def test_oracle_report_cells_round_trip(with_reference):
    times = np.linspace(0.0, 1.0, 4)
    expected = (np.float64(5e-3), np.float64(-2.5e-4)) if with_reference else (None, None)
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
    header, rows = _cells(oracle_report_csv(result))
    assert header == ["quantity", "expected", "fitted", "relative_error", "pass"]
    for row, fitted, want in zip(rows, (result.gamma_fit, result.shift_fit), expected):
        assert _same_double(row[2], fitted)
        if want is None:
            assert row[1] == row[3] == row[4] == ""
        else:
            assert _same_double(row[1], want)
            assert _same_double(row[3], abs(fitted - want) / abs(want))
            assert row[4] == "pass"
