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

Exit codes: 0 success, 1 input/configuration error (including usage), 2
numerical-guard failure (tolerance, positivity, truncation, fit).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import _svg
from ._csv import csv_text
from .bath import (
    bath_brute_force,
    discrete_golden_rule,
    discrete_second_order_shift,
    make_flat_bath,
    oracle_report_csv,
)
from .errors import ConfigurationError, NumericalGuard, VactrapError
from .evolve import integrate, record_to_csv
from .liouville import (
    FockSpace,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
)
from .observables import make_state, series_from_record
from .params import ApproximationMode, load_config
from .perturbation import pt_frequency_shift_renormalized
from .rates import (
    RateSet,
    build_rate_set,
    damping_rate,
    frequency_shift,
)
from .sweeps import (
    bfield_sweep,
    midpoint_exponent,
    sweep_csv,
    table1,
    table1_csv,
    validity_report,
)

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


def _deliver(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def _csv_only(fmt: str | None, name: str) -> None:
    if fmt == "svg":
        sys.stderr.write(f"note: {name} has no plot form; emitting csv\n")


# ---------------------------------------------------------------- handlers


def _cmd_rates(args) -> str:
    config = load_config(args.config)
    _csv_only(args.format, "rates")
    rs = build_rate_set(config)
    rel = rs.delta_omega / rs.omega_c
    return csv_text(("quantity", "value"), [
        ("mode", config.mode.value),
        ("omega_c_rad_s", rs.omega_c),
        ("omega_max_rad_s", rs.omega_max),
        ("gamma_per_s", rs.gamma),
        ("delta_plus_raw_per_s", rs.delta_plus_raw),
        ("delta_minus_raw_per_s", rs.delta_minus_raw),
        ("delta_plus_ren_per_s", rs.delta_plus_ren),
        ("delta_minus_ren_per_s", rs.delta_minus_ren),
        ("delta_omega_per_s", rs.delta_omega),
        ("relative_shift", rel),
        ("total_frequency_rad_s", rs.omega_c * (1.0 + rel)),
    ])


def _cmd_table1(args) -> str:
    config = load_config(args.config)
    _csv_only(args.format, "table1")
    return table1_csv(table1(config))


def _cmd_sweep_b(args) -> str:
    config = load_config(args.config)
    result = bfield_sweep(
        config,
        (args.b_min, args.b_max),
        args.points,
        mode=args.mode,
        cutoff=args.cutoff,
    )
    for note in result.notes:
        sys.stderr.write(f"note: {note}\n")
    sys.stderr.write(f"midpoint exponent: {midpoint_exponent(result):.6f}\n")
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
        )
    return sweep_csv(result)


def _cmd_evolve(args) -> str:
    space, rates = _scaled_run(args)
    if args.mode == ApproximationMode.WITH_RWA.value:
        gen = build_lindblad_generator(space, rates)
    else:
        gen = build_redfield_generator(space, rates)
    state = make_state("coherent", space, alpha=args.alpha)
    record = integrate(gen, state, (0.0, args.t_end), n_points=args.points)
    ops = build_fock_operators(space)
    if args.format == "svg":
        xs = series_from_record(record, "x", space)
        ns = series_from_record(record, "n", space)
        return _svg.line_plot(
            record.times,
            [xs.values, ns.values],
            ["<x>", "<n>"],
            title=f"scaled-regime evolution ({args.mode})",
            x_label="t (units of 1/omega_c)",
        )
    return record_to_csv(
        record, {"x": ops.x, "p": ops.p, "n": ops.n, "witness": ops.witness}
    )


def _cmd_witness(args) -> str:
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
        )
    return csv_text(
        ("time", "beyond_rwa", "with_rwa"), zip(rec_beyond.times, beyond.values, rwa.values)
    )


def _cmd_validate(args) -> str:
    config = load_config(args.config)
    report = validity_report(config)
    if args.format == "csv":
        return report.to_csv()
    _csv_only(args.format, "validate")
    return report.as_text()


def _cmd_pt_compare(args) -> str:
    config = load_config(args.config)
    _csv_only(args.format, "pt-compare")
    w = config.omega_c
    g = damping_rate(config.particle, w)
    rows = []
    for r in args.ratios:
        omega_max = r * w
        pt = pt_frequency_shift_renormalized(config.particle, w, omega_max)
        me = frequency_shift(g, w, omega_max, ApproximationMode.BEYOND_RWA)
        rows.append((r, omega_max, pt, me, pt / me))
    return csv_text(
        ("cutoff_ratio", "omega_max_rad_s", "pt_shift_per_s", "me_shift_per_s", "ratio"), rows
    )


def _cmd_bath_oracle(args) -> str:
    _csv_only(args.format, "bath-oracle")
    bath = make_flat_bath(
        n_modes=args.modes,
        omega_min=args.omega_min,
        omega_max=args.omega_max,
        gamma_target=args.gamma_target,
    )
    expected = (discrete_golden_rule(bath), discrete_second_order_shift(bath))
    result = bath_brute_force(bath, rates_expected=expected, duration=args.duration)
    sys.stderr.write(f"norm drift: {result.norm_drift:.3e}\n")
    return oracle_report_csv(result)


# ---------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="vactrap", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rates", parents=[], help="closed-form rates and shifts")
    _add_common(p)
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("table1", help="relative-shift grid (3 cutoffs x 2 modes)")
    _add_common(p)
    p.set_defaults(func=_cmd_table1)

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
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("pt-compare", help="perturbation theory vs master equation")
    _add_common(p)
    p.add_argument(
        "--ratios",
        type=float,
        nargs="+",
        default=[5.0, 20.0, 80.0, 320.0, 1000.0],
        help="cutoff/trap frequency ratios to scan",
    )
    p.set_defaults(func=_cmd_pt_compare)

    p = subs.add_parser("bath-oracle", help="brute-force discretized-bath check")
    _add_common(p, config=False)
    p.add_argument("--modes", type=int, default=64)
    p.add_argument("--omega-min", type=float, default=0.2)
    p.add_argument("--omega-max", type=float, default=5.0)
    p.add_argument("--gamma-target", type=float, default=5e-3)
    p.add_argument("--duration", type=float, default=80.0)
    p.set_defaults(func=_cmd_bath_oracle)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse, dispatch, deliver; map errors to the documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload = args.func(args)
        _deliver(payload, args.out)
    except ConfigurationError as exc:
        sys.stderr.write(f"vactrap: input error: {exc}\n")
        return 1
    except NumericalGuard as exc:
        sys.stderr.write(f"vactrap: numerical guard: {exc}\n")
        return 2
    except VactrapError as exc:
        sys.stderr.write(f"vactrap: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"vactrap: cannot write output: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())
