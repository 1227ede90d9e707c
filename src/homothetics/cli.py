"""Command-line interface.

Subcommands: solve, radii, coreset, asym, gen, verify.  Instances travel
as JSON ({"pointset": {...}, "container": {...}} or a bare pointset plus
--container); results print to stdout as JSON or CSV.  Exit codes:
0 success / all checks passed, 1 verification failure, 2 usage or input
error, 3 solver failure (an LP or enclosing-ball solve that could not
certify its answer, an exhausted subset budget, or a rejected
certificate).  Diagnostics for exit codes 2 and 3 go to stderr as a JSON
object {"error": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .containment import NotOptimalError, make_certificate, min_containment
from .coresets import extract_zero_coreset, greedy_coreset, optimal_coreset_size
from .experiments import CSV_HEADER, experiment_ids, run_experiment
from .geometry import (
    Container,
    Tolerance,
    container_from_json,
    container_to_json,
    pointset_from_json,
    pointset_to_json,
)
from .instances import CONTAINERS, FAMILIES, InstanceSpec, standard_container
from .radii import DEFAULT_BUDGET, core_radius, minkowski_asymmetry


class _CliError(Exception):
    pass


def _tolerance(args) -> Tolerance:
    return Tolerance(feas=args.tol_feas, pivot=args.tol_pivot, eq=args.tol_eq)


def _add_common(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol-feas", type=float, default=1e-7)
    parser.add_argument("--tol-pivot", type=float, default=1e-9)
    parser.add_argument("--tol-eq", type=float, default=1e-6)
    if with_input:
        parser.add_argument(
            "--input", default="-", help="instance JSON file, or '-' for stdin (default)"
        )
        parser.add_argument(
            "--container",
            default=None,
            help="named container (%s) or @file.json; overrides the instance's"
            % "|".join(CONTAINERS),
        )


def _read_instance(args):
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input) as fh:
                raw = fh.read()
        obj = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read instance: {exc}") from exc
    pointset = None
    container = None
    if isinstance(obj, dict) and ("pointset" in obj or "container" in obj):
        if "pointset" in obj:
            pointset = pointset_from_json(obj["pointset"])
        if "container" in obj:
            container = container_from_json(obj["container"])
    elif isinstance(obj, dict) and "points" in obj:
        pointset = pointset_from_json(obj)
    elif isinstance(obj, dict) and "kind" in obj:
        container = container_from_json(obj)
    else:
        raise _CliError("instance JSON needs 'pointset', 'points', or 'kind'")
    if args.container:
        container = _named_container(args.container, pointset.dim if pointset else None)
    return pointset, container


def _named_container(spec: str, dim: int | None) -> Container:
    if spec.startswith("@"):
        try:
            with open(spec[1:]) as fh:
                return container_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read container: {exc}") from exc
    if dim is None:
        raise _CliError("named containers need a point set to infer the dimension")
    if spec not in CONTAINERS:
        raise _CliError(f"unknown container {spec!r}; use one of {', '.join(CONTAINERS)}")
    return standard_container(spec, dim)


def _emit(obj: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        flat = {k: v for k, v in obj.items() if not isinstance(v, (list, dict))}
        print(",".join(flat))
        print(",".join(str(v) for v in flat.values()))


def _cmd_solve(args) -> int:
    tol = _tolerance(args)
    P, C = _read_instance(args)
    if P is None or C is None:
        raise _CliError("solve needs both a point set and a container")
    sol = min_containment(P, C, tol)
    out = {
        "rho": sol.rho,
        "center": sol.center.tolist(),
        "active_points": list(sol.active_points),
        "active_normals": list(sol.active_normals),
        "duals": sol.duals.tolist(),
    }
    if args.certificate:
        cert = make_certificate(P, C, sol, tol)
        out["certificate"] = {
            "touch_points": cert.touch_points.tolist(),
            "point_indices": list(cert.point_indices),
            "normals": cert.normals.tolist(),
            "lambda": cert.lam.tolist(),
        }
    _emit(out, args)
    return 0


def _cmd_radii(args) -> int:
    tol = _tolerance(args)
    P, C = _read_instance(args)
    if P is None or C is None:
        raise _CliError("radii needs both a point set and a container")
    if not 1 <= args.k <= P.dim:
        raise _CliError(f"--k must be in [1, {P.dim}]")
    res = core_radius(P, C, args.k, tol, args.budget)
    _emit({"k": res.k, "value": res.value, "witness": list(res.witness)}, args)
    return 0


def _cmd_coreset(args) -> int:
    tol = _tolerance(args)
    P, C = _read_instance(args)
    if P is None or C is None:
        raise _CliError("coreset needs both a point set and a container")
    if args.exact:
        size = optimal_coreset_size(P, C, args.eps, tol, args.budget)
        _emit({"mode": "exact", "eps": args.eps, "size": size}, args)
        return 0
    if args.zero:
        cs = extract_zero_coreset(P, C, tol)
        mode = "zero"
    else:
        cs = greedy_coreset(P, C, args.eps, tol)
        mode = "greedy"
    _emit(
        {
            "mode": mode,
            "eps": args.eps,
            "indices": list(cs.indices),
            "size": len(cs.indices),
            "radius": cs.radius,
            "center": cs.center.tolist(),
            "eps_achieved": cs.eps_achieved,
            "center_conform": cs.center_conform,
        },
        args,
    )
    return 0


def _cmd_asym(args) -> int:
    tol = _tolerance(args)
    _, C = _read_instance(args)
    if C is None:
        raise _CliError("asym needs a container")
    _emit({"asymmetry": minkowski_asymmetry(C, tol)}, args)
    return 0


def _cmd_gen(args) -> int:
    try:
        spec = InstanceSpec(
            family=args.family,
            dim=args.dim,
            k=args.k,
            tau=args.tau,
            n=args.n,
            seed=args.seed,
            distribution=args.distribution,
        )
        P, C = spec.build()
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    obj = {}
    if P is not None:
        obj["pointset"] = pointset_to_json(P)
    if C is not None:
        obj["container"] = container_to_json(C)
    print(json.dumps(obj, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerance(args)
    ids = experiment_ids() if args.all else [args.experiment]
    if not args.all and args.experiment is None:
        raise _CliError("verify needs an experiment id or --all")
    params: dict = {}
    if args.random_instances is not None:
        params["random_instances"] = args.random_instances
    reports = [run_experiment(name, params, tol) for name in ids]
    all_pass = all(rep.passed for rep in reports)
    if args.format == "csv":
        lines = [CSV_HEADER]
        for rep in reports:
            lines.extend(rep.to_csv_rows())
        text = "\n".join(lines)
    else:
        text = json.dumps([rep.to_json() for rep in reports], indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for rep in reports:
        n_bad = sum(1 for r in rep.rows if not r.passed)
        status = "ok" if n_bad == 0 else f"{n_bad} FAILING"
        print(f"# {rep.experiment}: {len(rep.rows)} rows, {status}", file=sys.stderr)
    return 0 if all_pass else 1


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="most (k+1)-point subsets a core radius may enumerate; beyond it, exit 3 "
        f"(default {DEFAULT_BUDGET})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homothetics",
        description="Exact smallest-homothet containment, core radii and core-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimal containment of a point set in a container")
    _add_common(p)
    p.add_argument("--certificate", action="store_true", help="attach an optimality certificate")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("radii", help="k-th core radius with witness")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    _add_budget(p)
    p.set_defaults(fn=_cmd_radii)

    p = sub.add_parser("coreset", help="construct or size core-sets")
    _add_common(p)
    p.add_argument("--eps", type=float, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true", help="farthest-point greedy (default)")
    mode.add_argument("--exact", action="store_true", help="exact minimum size via core radii")
    mode.add_argument("--zero", action="store_true", help="zero-core-set from the solver support")
    _add_budget(p)
    p.set_defaults(fn=_cmd_coreset)

    p = sub.add_parser("asym", help="Minkowski asymmetry of a container")
    _add_common(p)
    p.set_defaults(fn=_cmd_asym)

    p = sub.add_parser("gen", help="emit instance JSON for a named family")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--distribution",
        choices=("ball-uniform", "sphere", "gauss", "simplex-hull"),
        default="ball-uniform",
    )
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run experiments; exit 0 iff all rows pass")
    p.add_argument("experiment", nargs="?", choices=experiment_ids(), default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--out", default=None, help="append report to this file instead of stdout")
    p.add_argument("--random-instances", type=int, default=None)
    _add_common(p, with_input=False)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    except (NotOptimalError, RuntimeError) as exc:  # LpError and BudgetExceeded included
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
