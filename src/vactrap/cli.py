"""Command-line front end.

Subcommands::

    rates        closed-form rates and shifts for a configuration
    table1       relative-shift grid over the three cutoffs and both modes
    sweep-b      frequency shift and local scaling exponent vs magnetic field
    evolve       integrate the master equation in the scaled regime
    witness      two-quantum coherence witness, both generators side by side
    validate     positivity horizon / long-wavelength / spin-coupling report
    pt-compare   perturbation-theory shift against the master-equation shift
    bath-oracle  brute-force discretized-bath decay check

The library returns data; each ``_cmd_*`` handler lays out its report, as
CSV (``_csv_text``), text or an SVG plot, and returns it with its stderr
lines (long-wavelength ``note:`` lines, the sweep's midpoint exponent, the
oracle's norm drift), writing neither.  ``run_cli`` alone writes, once the
handler has returned: the report to stdout or ``--out``, then the stderr
lines, led by a note naming the form written where a command has no plot
form.  argparse writes usage, help and usage errors itself.  A refused
command so prints its error line alone; no command raises a warning, so
warning filters change nothing.

Exit codes: 0 success, 1 input/configuration error (including usage), 2
numerical-guard failure (tolerance, positivity, truncation, fit).
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import _svg
from .bath import (
    BathFitResult,
    bath_brute_force,
    discrete_golden_rule,
    discrete_second_order_shift,
    make_flat_bath,
)
from .errors import ConfigurationError, NumericalGuard
from .evolve import integrate
from .liouville import FockSpace, build_lindblad_generator, build_redfield_generator
from .observables import make_state, series_from_record
from .params import ApproximationMode, _cutoff_at, load_config
from .perturbation import pt_frequency_shift_renormalized
from .rates import RateSet, _rate_set_at, damping_rate, frequency_shift, level_shifts_raw
from .sweeps import bfield_sweep, midpoint_exponent, table1, validity_report

__all__ = ["main", "run_cli"]


class _Parser(argparse.ArgumentParser):
    """argparse that treats usage problems as exit-code-1 input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        sub.add_argument(
            "--config",
            default="sec-reference",
            help="config file path or the built-in name 'sec-reference'",
        )
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument(
        "--format",
        choices=("csv", "svg"),
        default=None,
        help="output format (csv unless stated otherwise)",
    )


def _add_scaled_run(sub: argparse.ArgumentParser, state_flag: str, state_help: str | None,
                    dim: int, t_end: float, points: int) -> None:
    """Scaled-unit rates, truncation, initial-state parameter and time grid."""
    sub.add_argument("--gamma", type=float, default=1e-2)
    sub.add_argument("--delta-plus", type=float, default=5e-3)
    sub.add_argument("--delta-minus", type=float, default=8e-3)
    sub.add_argument("--dim", type=int, default=dim)
    sub.add_argument(state_flag, type=float, default=1.0, help=state_help)
    sub.add_argument("--t-end", type=float, default=t_end)
    sub.add_argument("--points", type=int, default=points)


def _scaled_run(args) -> tuple[FockSpace, RateSet]:
    """The Fock space and scaled-unit rate set of :func:`_add_scaled_run`'s flags."""
    return FockSpace(dim=args.dim), RateSet.scaled(args.gamma, args.delta_plus, args.delta_minus)


def _csv_text(header, columns) -> str:
    """``header`` and the table of ``columns`` as comma-separated,
    newline-terminated lines.

    A ``str`` cell is written unchanged; any other cell is written as
    ``repr(float(v))``, the shortest text that reads back to the same double
    whether a Python float, an int or a numpy scalar carried it.  A numpy
    array column holds no ``str``, and is rendered in one C-level pass:
    ``repr`` over the Python floats of its float64 values, the same doubles.
    Handlers spell out ints, booleans and missing values as strings
    themselves.
    """
    texts = [
        map(repr, np.asarray(column, dtype=float).tolist()) if isinstance(column, np.ndarray)
        else [v if isinstance(v, str) else repr(float(v)) for v in column]
        for column in columns
    ]
    return "\n".join(map(",".join, [header, *zip(*texts)])) + "\n"


# relative errors up to which the oracle report marks a fit "pass"
_GAMMA_TOL = 0.10
_SHIFT_TOL = 0.05


def _oracle_report_csv(result: BathFitResult) -> str:
    """The bath-oracle table: expected, fitted, relative error, pass/fail.

    A fit passes within 10 % (gamma) or 5 % (shift) of its expected value.
    """
    rows = []
    for name, expected, fitted, tol in (
        ("gamma", result.gamma_expected, result.gamma_fit, _GAMMA_TOL),
        ("shift", result.shift_expected, result.shift_fit, _SHIFT_TOL),
    ):
        rel = abs(fitted - expected) / abs(expected) if expected != 0 else math.inf
        rows.append((name, expected, fitted, rel, "pass" if rel <= tol else "fail"))
    return _csv_text(("quantity", "expected", "fitted", "relative_error", "pass"), zip(*rows))


# ---------------------------------------------------------------- handlers


def _cmd_rates(args) -> tuple[str, list[str]]:
    config = load_config(args.config)
    omega_max, note = _cutoff_at(config.particle, config.trap, config.cutoff, config.omega_c)
    rs = _rate_set_at(config, omega_max)
    dp_raw, dm_raw = level_shifts_raw(rs.gamma, rs.omega_c, rs.omega_max)
    rel = rs.delta_omega / rs.omega_c
    payload = _csv_text(("quantity", "value"), zip(*[
        ("mode", config.mode.value),
        ("omega_c_rad_s", rs.omega_c),
        ("omega_max_rad_s", rs.omega_max),
        ("gamma_per_s", rs.gamma),
        ("delta_plus_raw_per_s", dp_raw),
        ("delta_minus_raw_per_s", dm_raw),
        ("delta_plus_ren_per_s", rs.delta_plus),
        ("delta_minus_ren_per_s", rs.delta_minus),
        ("delta_omega_per_s", rs.delta_omega),
        ("relative_shift", rel),
        ("total_frequency_rad_s", rs.omega_c * (1.0 + rel)),
    ]))
    return payload, [] if note is None else [f"note: {note}"]


def _cmd_table1(args) -> tuple[str, list[str]]:
    report = table1(load_config(args.config))
    return _csv_text(
        ("cutoff", "with_rwa", "beyond_rwa"),
        (report.cutoff_labels, report.with_rwa, report.beyond_rwa),
    ), [f"note: {note}" for note in report.notes]


def _cmd_sweep_b(args) -> tuple[str, list[str]]:
    config = load_config(args.config)
    result = bfield_sweep(
        config,
        (args.b_min, args.b_max),
        args.points,
        mode=args.mode,
        cutoff=args.cutoff,
    )
    lines = [*(f"note: {note}" for note in result.notes),
             f"midpoint exponent: {midpoint_exponent(result):.6f}"]
    if args.format == "svg":
        return _svg.line_plot(
            result.b_values,
            [np.abs(result.delta_omega)],
            [f"{result.mode.value} / {result.cutoff_kind.value}"],
            title="frequency shift vs field",
            x_label="B [T]",
            y_label="|shift| [1/s]",
            log_x=True,
            log_y=True,
        ), lines
    return _csv_text(
        ("b_tesla", "omega_c_rad_s", "delta_omega_rad_s", "local_exponent"),
        (result.b_values, result.omega_c_values, result.delta_omega, result.local_exponents),
    ), lines


def _cmd_evolve(args) -> tuple[str, list[str]]:
    space, rates = _scaled_run(args)
    if args.mode == ApproximationMode.WITH_RWA.value:
        gen = build_lindblad_generator(space, rates)
    else:
        gen = build_redfield_generator(space, rates)
    state = make_state("coherent", space, alpha=args.alpha)
    record = integrate(gen, state, (0.0, args.t_end), n_points=args.points)
    if args.format == "svg":
        return _svg.line_plot(
            record.times,
            [series_from_record(record, name, space).values for name in ("x", "n")],
            ["<x>", "<n>"],
            title=f"scaled-regime evolution ({args.mode})",
            x_label="t (units of 1/omega_c)",
        ), []
    moments = [series_from_record(record, name, space).values for name in ("x", "p", "n", "X")]
    # snapshots are exactly Hermitian by construction, so the Hermiticity
    # drift column is printed as the text 0.0
    columns = (record.times, record.trace_dev, ("0.0",) * len(record.times), record.min_eig,
               record.guard_pop, *moments)
    return _csv_text(
        ("time", "trace_dev", "herm_dev", "min_eig", "guard_pop", "x", "p", "n", "witness"),
        columns,
    ), []


def _cmd_witness(args) -> tuple[str, list[str]]:
    space, rates = _scaled_run(args)
    state = make_state("thermal", space, nbar=args.nbar)
    span = (0.0, args.t_end)
    rec_beyond = integrate(
        build_redfield_generator(space, rates), state, span, n_points=args.points
    )
    rec_rwa = integrate(
        build_lindblad_generator(space, rates), state, span, n_points=args.points
    )
    beyond = series_from_record(rec_beyond, "X", space)
    rwa = series_from_record(rec_rwa, "X", space)
    if args.format == "svg":
        return _svg.line_plot(
            rec_beyond.times,
            [beyond.values, rwa.values],
            ["beyond-rwa", "with-rwa"],
            title="two-quantum coherence witness from a thermal start",
            x_label="t (units of 1/omega_c)",
            y_label="<b^2 + b+^2>",
        ), []
    return _csv_text(
        ("time", "beyond_rwa", "with_rwa"), (rec_beyond.times, beyond.values, rwa.values)
    ), []


def _cmd_validate(args) -> tuple[str, list[str]]:
    config = load_config(args.config)
    report = validity_report(config)
    if args.format == "csv":
        return _csv_text(("quantity", "value"), zip(*[
            ("omega_c_rad_s", report.omega_c),
            ("gamma_per_s", report.gamma),
            ("delta_minus_ren_per_s", report.delta_minus_ren),
            ("t_max_s", report.t_max),
            ("cutoff_kind", report.cutoff_kind.value),
            ("cutoff_rad_s", report.cutoff_rad_s),
            ("lwa_bound_rad_s", report.lwa_bound_rad_s),
            ("lwa_bound_hz", report.lwa_bound_hz),
            ("cutoff_within_lwa", str(report.cutoff_within_lwa).lower()),
            ("spin_ratio", report.spin_ratio),
            ("spin_negligible", str(report.spin_negligible).lower()),
        ])), []
    lines = [
        f"trap frequency          {report.omega_c!r} rad/s",
        f"damping rate            {report.gamma!r} 1/s",
        f"positivity horizon      {report.t_max!r} s",
        f"{f'cutoff ({report.cutoff_kind.value})':<24}{report.cutoff_rad_s!r} rad/s",
        f"long-wavelength bound   {report.lwa_bound_rad_s!r} rad/s"
        f" ({report.lwa_bound_hz:.3e} Hz)",
        f"cutoff within bound     {report.cutoff_within_lwa}",
        f"spin-coupling ratio     {report.spin_ratio:.3e}",
        f"spin coupling negligible: {str(report.spin_negligible).lower()}",
    ]
    lines.extend(f"note: {n}" for n in report.notes)
    return "\n".join(lines) + "\n", []


def _cmd_pt_compare(args) -> tuple[str, list[str]]:
    config = load_config(args.config)
    w = config.omega_c
    g = damping_rate(config.particle, w)
    rows = []
    for r in args.ratios:
        omega_max = r * w
        pt = pt_frequency_shift_renormalized(config.particle, w, omega_max)
        me = frequency_shift(g, w, omega_max, ApproximationMode.BEYOND_RWA)
        if me == 0.0:
            raise ConfigurationError(
                f"cutoff ratio {r!r}: the master-equation shift rounds to zero"
            )
        rows.append((r, omega_max, pt, me, pt / me))
    return _csv_text(
        ("cutoff_ratio", "omega_max_rad_s", "pt_shift_per_s", "me_shift_per_s", "ratio"),
        zip(*rows),
    ), []


def _cmd_bath_oracle(args) -> tuple[str, list[str]]:
    bath = make_flat_bath(
        n_modes=args.modes,
        omega_min=args.omega_min,
        omega_max=args.omega_max,
        gamma_target=args.gamma_target,
    )
    expected = (discrete_golden_rule(bath), discrete_second_order_shift(bath))
    result = bath_brute_force(bath, rates_expected=expected, duration=args.duration)
    return _oracle_report_csv(result), [f"norm drift: {result.norm_drift:.3e}"]


# ---------------------------------------------------------------- wiring


@functools.cache
def build_parser() -> _Parser:
    """The ``vactrap`` parser, built on first use and shared by every later
    call in the process; parsing leaves no state on it."""
    parser = _Parser(prog="vactrap", description=__doc__.splitlines()[0])
    parser.set_defaults(plotless=None)  # the form a command without a plot writes
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rates", parents=[], help="closed-form rates and shifts")
    _add_common(p)
    p.set_defaults(func=_cmd_rates, plotless="csv")

    p = subs.add_parser("table1", help="relative-shift grid (3 cutoffs x 2 modes)")
    _add_common(p)
    p.set_defaults(func=_cmd_table1, plotless="csv")

    p = subs.add_parser("sweep-b", help="magnetic-field sweep with local exponents")
    _add_common(p)
    p.add_argument("--b-min", type=float, default=1.0)
    p.add_argument("--b-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--cutoff", default=None, help="omega1|omega2|omega3|compton")
    p.add_argument("--mode", default=None, choices=("with-rwa", "beyond-rwa"))
    p.set_defaults(func=_cmd_sweep_b)

    p = subs.add_parser("evolve", help="integrate the master equation (scaled units)")
    _add_common(p, config=False)
    p.add_argument("--mode", default="beyond-rwa", choices=("with-rwa", "beyond-rwa"))
    _add_scaled_run(p, "--alpha", "coherent amplitude", dim=20, t_end=50.0, points=501)
    p.set_defaults(func=_cmd_evolve)

    p = subs.add_parser("witness", help="coherence witness: both generators")
    _add_common(p, config=False)
    _add_scaled_run(p, "--nbar", None, dim=24, t_end=10.0, points=201)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("validate", help="positivity / long-wavelength / spin report")
    _add_common(p)
    p.set_defaults(func=_cmd_validate, plotless="text")

    p = subs.add_parser("pt-compare", help="perturbation theory vs master equation")
    _add_common(p)
    p.add_argument(
        "--ratios",
        type=float,
        nargs="+",
        default=[5.0, 20.0, 80.0, 320.0, 1000.0],
        help="cutoff/trap frequency ratios to scan",
    )
    p.set_defaults(func=_cmd_pt_compare, plotless="csv")

    p = subs.add_parser("bath-oracle", help="brute-force discretized-bath check")
    _add_common(p, config=False)
    p.add_argument("--modes", type=int, default=64)
    p.add_argument("--omega-min", type=float, default=0.2)
    p.add_argument("--omega-max", type=float, default=5.0)
    p.add_argument("--gamma-target", type=float, default=5e-3)
    p.add_argument("--duration", type=float, default=80.0)
    p.set_defaults(func=_cmd_bath_oracle, plotless="csv")

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse, dispatch, then write the report and its stderr lines; map
    errors to the documented exit codes, writing only the error line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload, lines = args.func(args)
        if args.out is None:
            sys.stdout.write(payload)
            sys.stdout.flush()  # ahead of the stderr lines where both share a file
        else:
            Path(args.out).write_text(payload)
    except ConfigurationError as exc:
        sys.stderr.write(f"vactrap: input error: {exc}\n")
        return 1
    except NumericalGuard as exc:
        sys.stderr.write(f"vactrap: numerical guard: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"vactrap: cannot write output: {exc}\n")
        return 1
    if args.format == "svg" and args.plotless is not None:
        lines = [f"note: {args.command} has no plot form; emitting {args.plotless}", *lines]
    sys.stderr.writelines(line + "\n" for line in lines)
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
