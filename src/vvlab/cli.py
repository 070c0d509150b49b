"""Command line interface.

Subcommands: ``check``, ``layer solve``, ``ns solve``, ``study rates``.
Exit codes: 0 on success, 1 on check or study failure, 2 on configuration
errors (including unknown subcommands, which argparse reports with usage
text).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, VvlabError
from .layer import write_profile_snapshots
from .ns import solve_ns
from .study import (
    PRESETS,
    export_report,
    get_preset,
    parse_config_file,
    run_convergence_study,
    solve_study_layer,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vvlab",
        description="Boundary-layer corrected low-viscosity studies in reduced geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a study config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="a study preset of the package")
        p.add_argument("--out", help="output directory (default: the "
                       "config's output_dir, else out)")

    common(sub.add_parser("check", help="run the invariant suite"))

    layer_p = sub.add_parser("layer", help="layer solver commands")
    layer_sub = layer_p.add_subparsers(dest="subcommand", required=True)
    common(layer_sub.add_parser("solve", help="solve the layer profile"))

    ns_p = sub.add_parser("ns", help="viscous solver commands")
    ns_sub = ns_p.add_subparsers(dest="subcommand", required=True)
    common(ns_sub.add_parser("solve", help="solve the viscous reference flow"))

    study_p = sub.add_parser("study", help="convergence study commands")
    study_sub = study_p.add_subparsers(dest="subcommand", required=True)
    common(study_sub.add_parser("rates", help="run the viscosity sweep and fit rates"))

    return parser


def _load_config(args):
    if args.config:
        return parse_config_file(args.config)
    if args.preset:
        return get_preset(args.preset)
    raise ConfigError("provide --config PATH or --preset NAME")


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.output_dir

    try:
        if args.command == "check":
            # only this command compiles and loads the invariant suite
            from .checks import run_all

            results = run_all(config)
            for res in results:
                tag = "PASS" if res.passed else "FAIL"
                print(f"{tag} {res.name}: {res.detail} ({res.seconds:.2f}s)")
            return 0 if all(r.passed for r in results) else 1

        if args.command == "layer":
            profile = solve_study_layer(config)
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "layer_profile.dat")
            write_profile_snapshots(profile, path)
            print(f"wrote {path}")
            return 0

        if args.command == "ns":
            sol = solve_ns(config.geometry, config.euler.build(config.geometry).profile,
                           config.ns.nu or config.nu_list[0], n=config.ns.n,
                           dt=config.ns.dt, t_end=config.ns.t_end,
                           store_times=config.t_eval)
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "ns_solution.dat")
            # the two components off the flow's are exactly zero; each
            # line is "t x u_comp0 u_comp1 u_comp2", every float its repr
            slot = sol.geom.flow_comp
            heads = [f"{x!r} " + "0.0 " * slot for x in sol.coords.tolist()]
            tail = " 0.0" * (2 - slot)
            with open(path, "w") as fh:
                fh.write("# t coord u_comp0 u_comp1 u_comp2\n")
                for t, u in zip(sol.times.tolist(), sol.u):
                    stamp = f"{t!r} "
                    fh.write("".join([f"{stamp}{head}{v!r}{tail}\n"
                                      for head, v in zip(heads, u.tolist())]))
            print(f"wrote {path}")
            return 0

        if args.command == "study":
            report = run_convergence_study(config)
            paths = export_report(report, out_dir)
            for p in paths:
                print(f"wrote {p}")
            failed = [label for label, entry in report.norm_results.items()
                      if entry.get("status") == "fail"]
            if failed:
                print(f"rate check failed for: {', '.join(failed)}", file=sys.stderr)
                return 1
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
