"""The ``vactrap`` command-line contract as tables, and one runner for them.

Every row runs in a fresh interpreter whose ``PYTHONPATH`` starts with one
tree's ``src``, in a scratch directory holding the config files of
``CONFIGS``.  What each table gates:

- ``NO_SCIPY`` (this tree, numpy alone): each row's exit code, no
  traceback, its words on stderr where it gives any, and on a refusal its
  error line alone on stderr, after at most usage lines;
- ``ABSCISSA_PROBE`` (this tree, numpy alone): the spectral abscissa of a
  generator past the stepper's cap;
- ``PARITY`` (this tree against a base tree): stdout, stderr and exit code
  byte-identical;
- ``NUMERIC`` (against a base tree): the same exit code, header and row
  count, and every entry within ``NUMERIC_TOLERANCE`` absolute;
- ``BATH_RUNS`` (against a base tree, through the library): the fit
  verdicts and the references exactly equal, P_1 and |<b>| within
  ``BATH_TOLERANCE`` absolute.

Usage, from any directory::

    python tests/cli_contract.py no-scipy
    python tests/cli_contract.py abscissa-probe
    python tests/cli_contract.py parity BASE_ROOT
    python tests/cli_contract.py bath BASE_ROOT
    python tests/cli_contract.py numeric BASE_ROOT
    python tests/cli_contract.py compare BASE_ROOT    # parity, bath, numeric

``BASE_ROOT`` is a checkout of the base commit, for example one made by
``git worktree add --detach ../base main``; the tree under test is the one
holding this file.  The exit status is 0 when every row passes and 1
otherwise.  A compared row whose bytes move prints its stdout, stderr and
exit-code diffs, and each numeric column's largest absolute and relative
change, so a change meant to move a report can list what it moved.
"""
from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

TOOL = Path(__file__).resolve()
ROOT = TOOL.parent.parent

#: Config files written into the directory every row runs in.
CONFIGS = {
    # a de Broglie cut-off past the long-wavelength bound
    "lwa.cfg": ("trap.omega_c_rad_s = 9.42e11", "trap.d_a_m = 5.0e-6", "trap.d_c_m = 50e-9",
                "cutoff.kind = de-broglie"),
    # a cut-off at 2 omega_c, where the renormalized shift vanishes
    "zero-shift.cfg": ("trap.omega_c_rad_s = 9.42e11", "cutoff.kind = explicit",
                       "cutoff.value_rad_s = 1.884e12"),
    # a trap given by its field alone, whose frequency is cyclotron_frequency's
    "bfield.cfg": ("trap.b_field_T = 5.36", "trap.d_a_m = 5.0e-6", "trap.d_c_m = 15e-9"),
    # a trap with no geometry, which the geometric cut-offs refuse
    "bare.cfg": ("trap.omega_c_rad_s = 9.42e11",),
    # closed forms and derived rates past the float range
    "light.cfg": ("particle.mass_kg = 1e-300", "trap.omega_c_rad_s = 1e10"),
    "slow.cfg": ("trap.omega_c_rad_s = 1e-300",),
    "tiny-mass.cfg": ("particle.mass_kg = 1e-320", "trap.omega_c_rad_s = 1e10"),
    "tiny-charge.cfg": ("trap.omega_c_rad_s = 9.42e11", "particle.charge_C = 1e-320"),
    "wide.cfg": ("trap.omega_c_rad_s = 1e-10", "cutoff.kind = explicit",
                 "cutoff.value_rad_s = 1e300"),
    "spin.cfg": ("particle.mass_kg = 1e-200", "trap.omega_c_rad_s = 1e-140"),
}

# Commands run with numpy alone, at its floor and at its latest release.
# Each must exit with its code, with no traceback, and where words are
# given, stderr must contain them; a row that exits 1 or 2 must write its
# error line alone, after at most usage lines (`error_alone`):
# - the integrating commands and the bath oracle exit 0;
# - growing: beyond-RWA at dim 28 takes the stepper (two blocks of 392
#   entries); at these negative shifts the state's norm passes its limit at
#   t = 610 while the trace and the guard band stay healthy, and the run
#   ends as a numerical guard, exit 2;
# - the refusals come before any propagation: a rate of 1e300 puts
#   ||G||_1 (t1 - t0) past 1/eps, exit 2 naming 1/eps; a generator on 1e6
#   levels would need more than physical memory for its dense ladder
#   operators, a 60000-mode bath oracle more than physical memory to run,
#   and a 1e12-point time or field grid more than physical memory to hold,
#   exit 1, refused before anything is allocated;
# - past-cap: at dim 30 each invariant block has 450 entries, past the
#   stepper's cap of 392, and with no SciPy to propagate it the run is one
#   input-error line naming SciPy, exit 1;
# - a config path that cannot be read as text (here a directory) is an
#   input error, exit 1;
# - a cut-off past the long-wavelength bound is reported as a note line,
#   by the report commands as by a sweep below a millitesla, whose note
#   keeps the first field's significant digits, exit 0;
# - a light particle, a slow trap or a mass near the float floor takes a
#   closed form past the float range, a field span of one ulp rounds to
#   repeated fields, and a huge bath rate overflows its coupling: each is
#   one input-error line, exit 1;
# - so is a derived quantity past the float range: a damping rate that
#   underflows to 0 (a charge near the float floor, a slow trap), a shift
#   logarithm whose argument overflows (a cut-off 1e310 times the trap
#   frequency), and a spin-coupling ratio whose m omega_c / hbar underflows;
# - a shift of 1e308 overflows the generator's entries, refused when it is
#   built with no warning, exit 2.
NO_SCIPY = (
    # name, exit code, words on stderr, argv
    ("evolve", 0, "", "evolve --dim 12 --t-end 20 --points 201"),
    ("evolve-rwa", 0, "", "evolve --mode with-rwa --dim 12 --t-end 20 --points 201"),
    ("witness", 0, "", "witness --dim 24 --t-end 5 --points 51"),
    ("rates", 0, "", "rates"),
    ("bath-oracle", 0, "", "bath-oracle --modes 64"),
    ("growing", 2, "", "evolve --gamma 0.01 --delta-plus -0.02 --delta-minus -0.015 --dim 28 "
                       "--t-end 1000 --points 101"),
    ("huge-rate", 2, "1/eps", "evolve --dim 6 --gamma 1e300 --points 11"),
    ("huge-dim", 1, "physical memory", "evolve --dim 1000000 --points 3"),
    ("past-cap", 1, "SciPy", "evolve --dim 30 --t-end 1 --points 3"),
    ("huge-bath", 1, "physical memory", "bath-oracle --modes 60000"),
    ("huge-points", 1, "physical memory", "evolve --dim 4 --points 1000000000000"),
    ("huge-sweep", 1, "physical memory", "sweep-b --points 1000000000000"),
    ("config-dir", 1, "input error", "rates --config /"),
    ("sweep-tiny", 0, "starting at 1e-05 T",
     "sweep-b --b-min 1e-5 --b-max 1e-4 --cutoff omega1 --points 16"),
    ("rates-lwa", 0, "note: cutoff", "rates --config lwa.cfg"),
    ("table1-lwa", 0, "note: cutoff", "table1 --config lwa.cfg"),
    ("pt-compare-light", 1, "input error", "pt-compare --config light.cfg"),
    ("pt-compare-slow", 1, "input error", "pt-compare --config slow.cfg"),
    ("rates-tiny-mass", 1, "input error", "rates --config tiny-mass.cfg"),
    ("sweep-collapsed", 1, "strictly increasing",
     "sweep-b --b-min 1 --b-max 1.0000000000000002 --points 16"),
    ("bath-overflow", 1, "must be finite", "bath-oracle --modes 3 --gamma-target 1e308"),
    ("sweep-tiny-charge", 1, "input error",
     "sweep-b --cutoff compton --points 16 --config tiny-charge.cfg"),
    ("validate-slow", 1, "input error", "validate --format csv --config slow.cfg"),
    ("rates-wide", 1, "input error", "rates --config wide.cfg"),
    ("validate-spin", 1, "input error", "validate --format csv --config spin.cfg"),
    ("evolve-overflow", 2, "numerical guard", "evolve --dim 6 --points 11 --delta-plus 1e308"),
)

#: Past the stepper's cap without SciPy: at dim 30 each invariant block has
#: 450 entries, past the cap of 392, and the abscissa must still be ~0.
ABSCISSA_PROBE = {"dim": 30, "rates": (1e-2, 5e-3, 8e-3), "bound": 1e-10}

# Every report command, run from this tree and from the base: stdout,
# stderr and exit code must be byte-identical.  A change that is meant to
# move a report fails here and says so in its diff.
PARITY = (
    ("rates", "rates"),
    ("table1", "table1"),
    ("validate", "validate"),
    ("validate-csv", "validate --format csv"),
    ("pt-compare", "pt-compare"),
    ("sweep-b", "sweep-b --points 65"),
    ("sweep-b-omega2", "sweep-b --cutoff omega2 --points 33"),
    ("sweep-b-svg", "sweep-b --points 65 --format svg"),
    ("bath-oracle", "bath-oracle --modes 64"),
    ("evolve-help", "evolve --help"),
    ("witness-help", "witness --help"),
    ("pt-compare-ratios", "pt-compare --ratios 1.5 2.5 3.5 1e3 1e6 1e9"),
    ("sweep-b-rwa-omega1", "sweep-b --mode with-rwa --cutoff omega1 --points 33"),
    ("sweep-b-compton", "sweep-b --cutoff compton --points 33"),
    ("validate-lwa", "validate --config lwa.cfg"),
    ("validate-lwa-csv", "validate --config lwa.cfg --format csv"),
    ("validate-zero-shift", "validate --config zero-shift.cfg"),
    ("sweep-b-omega2-lwa", "sweep-b --cutoff omega2 --points 65 --b-max 100"),
    ("evolve-svg", "evolve --dim 12 --t-end 20 --points 201 --format svg"),
    ("witness-svg", "witness --dim 24 --t-end 5 --points 51 --format svg"),
    ("rates-svg", "rates --format svg"),
    ("table1-svg", "table1 --format svg"),
    ("pt-compare-svg", "pt-compare --format svg"),
    ("bath-oracle-svg", "bath-oracle --modes 64 --format svg"),
    ("rates-bfield", "rates --config bfield.cfg"),
    ("validate-bfield", "validate --config bfield.cfg"),
    ("sweep-b-bfield", "sweep-b --config bfield.cfg --points 33"),
    ("sweep-b-zero-shift", "sweep-b --config zero-shift.cfg --points 33"),
    ("sweep-b-explicit", "sweep-b --cutoff explicit --points 33"),
    ("sweep-b-bare-omega2", "sweep-b --config bare.cfg --cutoff omega2 --points 33"),
    ("rates-lwa", "rates --config lwa.cfg"),
    ("table1-lwa", "table1 --config lwa.cfg"),
    ("rates-zero-shift", "rates --config zero-shift.cfg"),
)

# The propagator may move these columns by rounding, so they are compared
# by value: same exit code, same header, same row count, and every entry
# within NUMERIC_TOLERANCE absolute of the base.
NUMERIC = (
    ("evolve", "evolve --dim 20 --t-end 300 --points 4001"),
    ("evolve-rwa", "evolve --mode with-rwa --dim 20 --t-end 300 --points 4001"),
    ("evolve-cap", "evolve --dim 28 --t-end 300 --points 785"),
    ("witness", "witness --dim 24"),
    ("evolve-t50", "evolve --dim 20 --t-end 50 --points 101"),
    ("evolve-expm-cap", "evolve --dim 30 --t-end 10 --points 21"),
    ("evolve-dim40", "evolve --dim 40 --t-end 10 --points 101"),
)
NUMERIC_TOLERANCE = 1e-6

# No command reaches the counter-rotating bath, so it runs through the
# library, with both references.  The 64-mode sector run of `bath-oracle
# --modes 64` is compared the same way, so its values are checked whenever
# its bytes move.  Each run: a `vactrap.bath` constructor, its arguments,
# and the arguments of `bath_brute_force`.
BATH_RUNS = {
    "8-modes": ("make_flat_bath", dict(n_modes=8, omega_min=0.5, omega_max=1.5,
                                       gamma_target=2e-3, counter_rotating=True),
                dict(duration=40.0, n_points=801)),
    "3-levels-2-modes": ("BathModel", dict(mode_frequencies=[2.0, 3.0], couplings=[0.01, 0.02],
                                           particle_levels=3, counter_rotating=True),
                         dict(duration=200.0, n_points=401)),
    "64-mode-sector": ("make_flat_bath", dict(n_modes=64, omega_min=0.2, omega_max=5.0,
                                              gamma_target=5e-3),
                       dict(n_points=2001)),
}
BATH_TOLERANCE = 1e-12

#: Diff lines printed per stream of a moved row; the rest are counted.
DIFF_LINES = 60

#: The line a refused command ends its stderr with.
ERROR_LINE = re.compile(r"vactrap(?: [\w-]+)?: (?:error|input error|numerical guard): ")


def config_text(name: str) -> str:
    """The text of the config file ``name``, one key per line."""
    return "".join(line + "\n" for line in CONFIGS[name])


def error_alone(err: str) -> bool:
    """Whether stderr ``err`` is one error line after at most argparse's
    usage lines (``usage: `` and its indented continuations)."""
    *before, last = err.splitlines() or [""]
    return (err.endswith("\n") and ERROR_LINE.match(last) is not None
            and all(line.startswith(("usage: ", " ")) for line in before))


# ---------------------------------------------------------------- runner


@dataclass(frozen=True)
class Run:
    """What one fresh interpreter wrote and returned."""

    out: bytes
    err: bytes
    code: int


def run_python(root: Path, cwd: Path, *args: str) -> Run:
    """``python args`` in a fresh interpreter on ``root``'s ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    return Run(proc.stdout, proc.stderr, proc.returncode)


def run_vactrap(root: Path, cwd: Path, argv: str) -> Run:
    """``vactrap argv`` on ``root``'s sources."""
    return run_python(root, cwd, "-c", "from vactrap.cli import main; main()", *argv.split())


def _text(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


# ---------------------------------------------------------------- comparer


_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def _changes(pairs) -> tuple[float, str, float, str]:
    """Largest absolute and relative change over ``(where, base, head)``
    number pairs, with where each was found."""
    worst_abs, at_abs, worst_rel, at_rel = 0.0, "", 0.0, ""
    for where, b, h in pairs:
        if b == h or (math.isnan(b) and math.isnan(h)):
            continue
        gap = abs(h - b)
        if math.isnan(gap):
            gap = math.inf
        rel = gap / abs(b) if 0.0 < abs(b) < math.inf else math.inf
        if gap > worst_abs or not at_abs:
            worst_abs, at_abs = gap, where
        if rel > worst_rel or not at_rel:
            worst_rel, at_rel = rel, where
    return worst_abs, at_abs, worst_rel, at_rel


def column_changes(base: str, head: str) -> dict[str, tuple[float, str, float, str]]:
    """Each numeric column's largest absolute and relative change.

    A CSV report (a comma in its first line, the same header on both sides)
    has one column per header name, and a row is named by its first cell,
    such as ``time=0.5``.
    Any other text pairs its lines in order: a line with its numbers blanked
    out, such as ``positivity horizon # s``, is a column.
    """
    base_lines, head_lines = base.splitlines(), head.splitlines()
    columns: dict[str, list] = {}
    if base_lines[:1] == head_lines[:1] and "," in (base_lines or [""])[0]:
        names = base_lines[0].split(",")
        for row_b, row_h in zip(base_lines[1:], head_lines[1:]):
            cells_b, cells_h = row_b.split(","), row_h.split(",")
            for name, vb, vh in zip(names, cells_b, cells_h):
                try:
                    pair = float(vb), float(vh)
                except ValueError:
                    continue
                columns.setdefault(name, []).append((f"{names[0]}={cells_b[0]}", *pair))
    else:
        for n, (line_b, line_h) in enumerate(zip(base_lines, head_lines), start=1):
            if _NUMBER.sub("#", line_b) != _NUMBER.sub("#", line_h):
                continue
            for vb, vh in zip(_NUMBER.findall(line_b), _NUMBER.findall(line_h)):
                columns.setdefault(_NUMBER.sub("#", line_b).strip(), []).append(
                    (f"line {n}", float(vb), float(vh))
                )
    return {name: _changes(pairs) for name, pairs in columns.items()}


def _print_changes(changes) -> None:
    for name, (gap, at_gap, rel, at_rel) in changes.items():
        if at_gap:
            print(f"    {name}: largest absolute change {gap:.3e} ({at_gap}), "
                  f"largest relative change {rel:.3e} ({at_rel})")


def _print_diff(label: str, base: str, head: str) -> None:
    lines = list(difflib.unified_diff(base.splitlines(), head.splitlines(),
                                      f"base {label}", f"head {label}", lineterm=""))
    for line in lines[:DIFF_LINES]:
        print("    " + line)
    if len(lines) > DIFF_LINES:
        print(f"    ... {len(lines) - DIFF_LINES} more diff lines")


def report_move(name: str, base: Run, head: Run) -> bool:
    """Print what moved between two runs of row ``name``; True if nothing did."""
    if base == head:
        print(f"same  {name}")
        return True
    print(f"MOVED {name}")
    for label, b, h in (("stdout", base.out, head.out), ("stderr", base.err, head.err),
                        ("exit code", b"%d\n" % base.code, b"%d\n" % head.code)):
        if b != h:
            _print_diff(label, _text(b), _text(h))
            if label != "exit code":
                _print_changes(column_changes(_text(b), _text(h)))
    return False


def _numeric_gate(base: Run, head: Run) -> str | None:
    """Why ``head`` fails the numeric gate against ``base``, or None."""
    if base.code != head.code:
        return f"exit code {head.code}, base {base.code}"
    rows_b, rows_h = _text(base.out).splitlines(), _text(head.out).splitlines()
    if rows_b[:1] != rows_h[:1] or len(rows_b) != len(rows_h):
        return "header or row count differs from the base"
    for row_b, row_h in zip(rows_b[1:], rows_h[1:]):
        for vb, vh in zip(row_b.split(","), row_h.split(",")):
            try:
                gap = abs(float(vb) - float(vh))
            except ValueError:
                return f"a cell is not a number: {vb!r} against {vh!r}"
            if gap > NUMERIC_TOLERANCE:
                return f"a column moved by more than {NUMERIC_TOLERANCE:g}"
    return None


# ---------------------------------------------------------------- steps


def no_scipy(work: Path) -> bool:
    if run_python(ROOT, work, "-c", "import scipy").code == 0:
        print("scipy is installed")
        return False
    ok = True
    for name, expected, words, argv in NO_SCIPY:
        run = run_vactrap(ROOT, work, argv)
        err = _text(run.err)
        print(f"{name}: exit {run.code}")
        sys.stdout.write(err)
        if (run.code != expected or "Traceback" in err or words not in err
                or (expected != 0 and not error_alone(err))):
            print(f"{name} exited {run.code} (expected {expected}"
                  + (f", with {words!r} on stderr" if words else "")
                  + (", its error line alone" if expected != 0 else "") + ")")
            ok = False
    return ok


def abscissa_probe(work: Path) -> bool:
    run = run_python(ROOT, work, str(TOOL), "abscissa-value")
    sys.stdout.write(_text(run.err))
    if run.code != 0:
        return False
    value = float(run.out)
    print(f"dim-{ABSCISSA_PROBE['dim']} spectral abscissa: {value!r}")
    return abs(value) < ABSCISSA_PROBE["bound"]


def parity(work: Path, base_root: Path) -> bool:
    moved = [name for name, argv in PARITY if not report_move(
        name, run_vactrap(base_root, work, argv), run_vactrap(ROOT, work, argv))]
    print(f"{len(PARITY) - len(moved)} of {len(PARITY)} rows byte-identical"
          + (f"; moved: {' '.join(moved)}" if moved else ""))
    return not moved


def numeric(work: Path, base_root: Path) -> bool:
    ok = True
    for name, argv in NUMERIC:
        base, head = run_vactrap(base_root, work, argv), run_vactrap(ROOT, work, argv)
        report_move(name, base, head)
        if (why := _numeric_gate(base, head)) is not None:
            print(f"  {name}: {why}")
            ok = False
    return ok


def bath(work: Path, base_root: Path) -> bool:
    values = {}
    for tree, root in (("base", base_root), ("head", ROOT)):
        run = run_python(root, work, str(TOOL), "bath-values")
        if run.code != 0:
            print(f"the {tree} bath runs failed:\n{_text(run.err)}")
            return False
        values[tree] = json.loads(run.out)
    base, head = values["base"], values["head"]
    if sorted(base) != sorted(head):
        print(f"runs differ: {sorted(base)} against {sorted(head)}")
        return False
    ok = True
    for key in sorted(base):
        if key.endswith(("verdicts", "references")):
            print(key, base[key], head[key])
            ok &= base[key] == head[key]
        elif len(base[key]) != len(head[key]):
            print(key, f"{len(base[key])} values against {len(head[key])}")
            ok = False
        else:
            gap, _, rel, _ = _changes(
                (str(n), b, h) for n, (b, h) in enumerate(zip(base[key], head[key])))
            print(key, f"{gap:.2e}", f"(largest relative change {rel:.2e})")
            ok &= gap <= BATH_TOLERANCE
    return ok


# ------------------------------------------- run inside one tree's sources


def _bath_values() -> None:
    """Print each ``BATH_RUNS`` run's references, verdicts, P_1 and |<b>| as
    JSON, from the ``vactrap`` on ``PYTHONPATH``."""
    import numpy as np
    from vactrap import bath
    from vactrap.cli import _oracle_report_csv
    from vactrap.errors import FitFailure

    out = {}
    for name, (constructor, kwargs, run) in BATH_RUNS.items():
        model = getattr(bath, constructor)(**kwargs)
        refs = (bath.discrete_golden_rule(model), bath.discrete_second_order_shift(model))
        out[name + " references"] = list(refs)
        try:
            result = bath.bath_brute_force(model, rates_expected=refs, **run)
        except FitFailure as exc:
            out[name + " verdicts"] = [f"FitFailure: {exc}"]
            continue
        rows = _oracle_report_csv(result).splitlines()[1:]
        out[name + " verdicts"] = [row.split(",")[4] for row in rows]
        out[name + " P_1"] = np.asarray(result.excited_population, dtype=float).tolist()
        out[name + " |<b>|"] = np.abs(result.mean_lowering).tolist()
    print(json.dumps(out))


def _abscissa_value() -> None:
    """Print the probe's spectral abscissa, from the ``vactrap`` on ``PYTHONPATH``."""
    from vactrap.liouville import FockSpace, build_redfield_generator, spectral_abscissa
    from vactrap.rates import RateSet

    gen = build_redfield_generator(FockSpace(dim=ABSCISSA_PROBE["dim"]),
                                   RateSet.scaled(*ABSCISSA_PROBE["rates"]))
    print(repr(spectral_abscissa(gen)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="step", required=True)
    for step in ("no-scipy", "abscissa-probe"):
        subs.add_parser(step)
    for step in ("parity", "bath", "numeric", "compare"):
        subs.add_parser(step).add_argument("base_root", type=Path)
    for step in ("bath-values", "abscissa-value"):  # run by the steps, in one tree
        subs.add_parser(step)
    args = parser.parse_args(argv)
    if args.step == "bath-values":
        _bath_values()
        return 0
    if args.step == "abscissa-value":
        _abscissa_value()
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for name in CONFIGS:
            (work / name).write_text(config_text(name))
        if args.step == "no-scipy":
            return 0 if no_scipy(work) else 1
        if args.step == "abscissa-probe":
            return 0 if abscissa_probe(work) else 1
        steps = {"parity": [parity], "bath": [bath], "numeric": [numeric],
                 "compare": [parity, bath, numeric]}[args.step]
        results = [step(work, args.base_root.resolve()) for step in steps]
        return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
