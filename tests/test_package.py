"""The package surface: what ``vactrap`` exports is what its modules declare,
and what importing it and running its report commands loads."""
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vactrap
from vactrap import errors

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
