"""The package surface: what ``vactrap`` exports is what its modules declare,
which modules import which, what importing it and running its report
commands loads, and how a count that is not an integer is refused."""
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vactrap
from vactrap import errors
from vactrap.bath import BathModel, bath_brute_force, make_flat_bath
from vactrap.cli import run_cli
from vactrap.errors import ConfigurationError, DimensionMismatch
from vactrap.evolve import integrate
from vactrap.liouville import FockSpace, build_lindblad_generator
from vactrap.observables import make_state
from vactrap.params import reference_config
from vactrap.rates import RateSet
from vactrap.sweeps import bfield_sweep

_SRC = str(Path(vactrap.__file__).resolve().parents[1])


def test_package_exports_every_declared_name_and_nothing_else():
    # each public submodule's __all__ minus cli.main (the console entry
    # point), plus the error classes, which errors declares by defining them
    declared = set()
    for info in pkgutil.iter_modules(vactrap.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"vactrap.{info.name}")
            declared.update(getattr(module, "__all__", ()))
    declared.remove("main")
    declared.update(
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    )
    exported = {
        name
        for name, obj in vars(vactrap).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == declared


def test_every_error_is_an_input_error_or_a_numerical_guard():
    # run_cli maps exactly these two families to exit codes 1 and 2; an error
    # outside both would escape it as a traceback
    families = (errors.ConfigurationError, errors.NumericalGuard)
    for obj in vars(errors).values():
        if inspect.isclass(obj) and issubclass(obj, errors.VactrapError):
            if obj not in (errors.VactrapError, *families):
                assert sum(issubclass(obj, family) for family in families) == 1, obj


def _imported_submodules(name: str) -> set:
    """The ``vactrap`` submodules that module ``name`` imports anywhere in
    its source, read from its syntax tree."""
    tree = ast.parse(Path(vactrap.__file__).with_name(f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            dotted = [f"vactrap.{node.module}"] if node.module else [
                f"vactrap.{alias.name}" for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted = [node.module] if node.module != "vactrap" else [
                f"vactrap.{alias.name}" for alias in node.names
            ]
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("vactrap."))
    return found


@pytest.mark.parametrize("name", ["params", "rates", "perturbation", "sweeps"])
def test_closed_form_modules_import_no_dynamics(name):
    # rates, shifts, the positivity horizon and the reports built on them
    # need no generator, trajectory or oracle
    dynamics = {"liouville", "evolve", "observables", "bath", "cli"}
    assert not _imported_submodules(name) & dynamics


def test_bath_oracle_imports_no_generator_code():
    # the oracle builds its own ladder, so a fault in the generators or the
    # propagation they feed cannot reach the check made against them
    assert not _imported_submodules("bath") & {"liouville", "evolve", "observables"}


@pytest.mark.parametrize("name", ["params", "rates", "perturbation"])
def test_closed_form_modules_import_no_numpy_at_module_level(name):
    # rates, shifts and the positivity horizon are Python-float arithmetic
    tree = ast.parse(Path(vactrap.__file__).with_name(f"{name}.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def _integrate_points(n):
    space = FockSpace(dim=4)
    gen = build_lindblad_generator(space, RateSet.scaled(1e-2, 5e-3, 8e-3))
    return integrate(gen, make_state("fock", space, n=0), (0.0, 1.0), n_points=n)


# entry point -> (call taking the count, an admitted count, the refusal)
_COUNTS = {
    "FockSpace dim": (lambda n: FockSpace(dim=n), 4, DimensionMismatch),
    "make_state fock level": (
        lambda n: make_state("fock", FockSpace(dim=8), n=n), 2, DimensionMismatch
    ),
    "integrate n_points": (_integrate_points, 3, ConfigurationError),
    "bath_brute_force n_points": (
        lambda n: bath_brute_force(make_flat_bath(64, 0.2, 5.0, 5e-3), n_points=n),
        401,
        ConfigurationError,
    ),
    "BathModel particle_levels": (
        lambda n: BathModel([2.0], [0.01], particle_levels=n, counter_rotating=True),
        3,
        DimensionMismatch,
    ),
    "BathModel photons_per_mode": (
        lambda n: BathModel([2.0], [0.01], photons_per_mode=n, counter_rotating=True),
        2,
        DimensionMismatch,
    ),
    "make_flat_bath n_modes": (lambda n: make_flat_bath(n, 0.5, 1.5, 2e-3), 8, DimensionMismatch),
    "bfield_sweep n_points": (
        lambda n: bfield_sweep(reference_config(), (1.0, 10.0), n), 17, DimensionMismatch
    ),
}


@pytest.mark.parametrize("entry", _COUNTS)
def test_a_count_must_be_an_integer(entry):
    # a float count, even a whole one, is refused where it enters rather
    # than ending in a TypeError from range or linspace; numpy integers pass
    call, admitted, refusal = _COUNTS[entry]
    call(np.int64(admitted))
    for bad in (float(admitted), admitted + 0.5):
        with pytest.raises(refusal, match="must be an integer"):
            call(bad)


@pytest.mark.parametrize("module", ["vactrap", "vactrap.cli"])
def test_module_run_writes_the_report(module, capsys, tmp_path):
    # the package imports cli, so runpy warns before running vactrap.cli;
    # the report is the same either way, and `python -m vactrap` adds nothing
    assert run_cli(["rates"]) == 0
    report = capsys.readouterr().out
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", module, "rates"], capture_output=True, text=True,
        timeout=60, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (0, report), proc.stderr
    if module == "vactrap":
        assert proc.stderr == ""


def _scipy_modules_after(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter after ``import vactrap``; it exits
    non-zero, naming them, if any ``scipy`` module is loaded at the end."""
    script = (
        f"import sys; sys.path.insert(0, {_SRC!r}); import vactrap\n{code}\n"
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )


def test_import_loads_no_scipy():
    proc = _scipy_modules_after("")
    assert proc.returncode == 0, proc.stderr


def test_report_commands_load_no_scipy():
    # SciPy is imported only where expm_multiply runs, past the stepper's
    # cap; none of these reports propagates at all
    reports = [
        ["rates"],
        ["table1"],
        ["validate"],
        ["pt-compare"],
        ["sweep-b", "--points", "65"],
        ["bath-oracle", "--modes", "64"],
    ]
    code = (
        "import contextlib, io\n"
        "from vactrap.cli import run_cli\n"
        f"for argv in {reports!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run_cli(argv) == 0, argv"
    )
    proc = _scipy_modules_after(code)
    assert proc.returncode == 0, proc.stderr


def test_product_space_oracle_loads_no_scipy():
    # the parity sectors come from the basis labels, not from a block
    # search, which would import scipy.sparse.csgraph
    code = (
        "from vactrap.bath import bath_brute_force, make_flat_bath\n"
        "bath_brute_force(make_flat_bath(8, 0.5, 1.5, 2e-3, counter_rotating=True),\n"
        "                 duration=40.0, n_points=801)"
    )
    proc = _scipy_modules_after(code)
    assert proc.returncode == 0, proc.stderr


def _without_scipy(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` as :func:`_scipy_modules_after` does, with every SciPy
    import made to fail while it runs."""
    return _scipy_modules_after(
        f"sys.modules['scipy'] = None\n{code}\ndel sys.modules['scipy']"
    )


def test_integrating_commands_below_the_cap_load_no_scipy():
    # evolve (dim 20) and witness (dim 24) have no invariant block past the
    # stepper's cap, so numpy alone propagates them
    code = (
        "import contextlib, io\n"
        "from vactrap.cli import run_cli\n"
        "for argv in (['evolve'], ['witness']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run_cli(argv) == 0, argv"
    )
    proc = _without_scipy(code)
    assert proc.returncode == 0, proc.stderr


def test_past_the_stepper_cap_without_scipy_is_one_input_error():
    # at dim 30 each block has 450 entries, past the stepper's cap of 392,
    # and expm_multiply cannot be imported: one error line, exit 1
    code = (
        "import contextlib, io\n"
        "from vactrap.cli import run_cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    code = run_cli(['evolve', '--dim', '30', '--t-end', '1', '--points', '3'])\n"
        "err = err.getvalue()\n"
        "assert code == 1 and err.startswith('vactrap: input error: '), err\n"
        "assert err.count('\\n') == 1 and 'SciPy' in err, err\n"
        "assert 'block of 450 entries' in err and 'cap of 392' in err, err"
    )
    proc = _without_scipy(code)
    assert proc.returncode == 0, proc.stderr


# at dim 30 each block has 450 entries, past the stepper's cap
@pytest.mark.parametrize("dim", [20, 30])
def test_spectral_abscissa_loads_no_scipy(dim):
    code = (
        "from vactrap.liouville import FockSpace, build_redfield_generator, spectral_abscissa\n"
        "from vactrap.rates import RateSet\n"
        f"gen = build_redfield_generator(FockSpace(dim={dim}), RateSet.scaled(1e-2, 5e-3, 8e-3))\n"
        "assert abs(spectral_abscissa(gen)) < 1e-10"
    )
    proc = _without_scipy(code)
    assert proc.returncode == 0, proc.stderr
