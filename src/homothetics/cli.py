"""Command-line interface.

Subcommands: solve, radii, coreset, asym, gen, verify.  Instances travel
as JSON ({"pointset": {...}, "container": {...}} or a bare pointset plus
--container); results print to stdout as JSON or CSV.  Exit codes:
0 success / all checks passed, 1 verification failure, 2 usage or input
error (among them unreadable or malformed instance JSON, and arguments
out of range, such as an unknown container name or a --k beyond the
dimension, with the library's message), 3 solver failure (an LP or
enclosing-ball solve that could not certify its answer, an exhausted
subset budget, or a rejected certificate).  Diagnostics for exit codes 2
and 3 go to stderr as a JSON object {"error": ...}.

``main`` is the one command path: it reads the instance, builds the
``Tolerance``, checks that the parts a command needs are present, emits
the command's output dict and maps each failure to its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .containment import NotOptimalError, make_certificate, min_containment
from .coresets import extract_zero_coreset, greedy_coreset, optimal_coreset_size
from .experiments import CSV_HEADER, experiment_ids, run_experiment
from .geometry import (
    DEFAULT_TOL,
    Container,
    PointSet,
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


def _add_common(parser: argparse.ArgumentParser, fn, needs_points: bool | None = None) -> None:
    """Format and tolerance flags, and ``fn`` as the command.  An instance
    command (``needs_points`` True or False) also reads ``--input`` and
    ``--container``; ``main`` hands it the point set, which it needs when
    ``needs_points`` is True, and the container."""
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol-feas", type=float, default=DEFAULT_TOL.feas)
    parser.add_argument("--tol-pivot", type=float, default=DEFAULT_TOL.pivot)
    parser.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq)
    parser.set_defaults(fn=fn, needs_points=needs_points)
    if needs_points is not None:
        parser.add_argument(
            "--input", default="-", help="instance JSON file, or '-' for stdin (default)"
        )
        parser.add_argument(
            "--container",
            default=None,
            help="named container (%s) or @file.json; overrides the instance's"
            % "|".join(CONTAINERS),
        )


def _load(path: str, what: str, convert):
    """``convert`` applied to the JSON in ``path`` ('-' is stdin); an
    unreadable file, invalid JSON or JSON of the wrong types is a
    ``_CliError``."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as fh:
                obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read {what}: {exc}") from exc
    try:
        return convert(obj)
    except (TypeError, AttributeError) as exc:
        raise _CliError(f"malformed {what}: {exc}") from exc


def _instance_from_json(obj) -> tuple[PointSet | None, Container | None]:
    obj = obj if isinstance(obj, dict) else {}
    if "pointset" not in obj and "container" not in obj:
        if "points" in obj:
            obj = {"pointset": obj}
        elif "kind" in obj:
            obj = {"container": obj}
        else:
            raise _CliError("instance JSON needs 'pointset', 'points', or 'kind'")
    P = pointset_from_json(obj["pointset"]) if "pointset" in obj else None
    C = container_from_json(obj["container"]) if "container" in obj else None
    return P, C


def _read_instance(args) -> tuple[PointSet | None, Container | None]:
    P, C = _load(args.input, "instance", _instance_from_json)
    if not args.container:
        return P, C
    if args.container.startswith("@"):
        return P, _load(args.container[1:], "container", container_from_json)
    if P is None:
        raise _CliError("named containers need a point set to infer the dimension")
    return P, standard_container(args.container, P.dim)


def _emit(obj: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        flat = {k: v for k, v in obj.items() if not isinstance(v, (list, dict))}
        print(",".join(flat))
        print(",".join(str(v) for v in flat.values()))


def _cmd_solve(args, P, C, tol) -> dict:
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
    return out


def _cmd_radii(args, P, C, tol) -> dict:
    res = core_radius(P, C, args.k, tol, args.budget)
    return {"k": res.k, "value": res.value, "witness": list(res.witness)}


def _cmd_coreset(args, P, C, tol) -> dict:
    if not 0.0 <= args.eps < math.inf:  # --zero reads no eps, and JSON has no NaN
        raise _CliError(f"--eps must be finite and nonnegative, got {args.eps}")
    if args.exact:
        size = optimal_coreset_size(P, C, args.eps, tol, args.budget)
        return {"mode": "exact", "eps": args.eps, "size": size}
    cs = extract_zero_coreset(P, C, tol) if args.zero else greedy_coreset(P, C, args.eps, tol)
    return {
        "mode": "zero" if args.zero else "greedy",
        "eps": args.eps,
        "indices": list(cs.indices),
        "size": len(cs.indices),
        "radius": cs.radius,
        "center": cs.center.tolist(),
        "eps_achieved": cs.eps_achieved,
        "center_conform": cs.center_conform,
    }


def _cmd_asym(args, P, C, tol) -> dict:
    return {"asymmetry": minkowski_asymmetry(C, tol)}


def _cmd_gen(args) -> int:
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
    obj = {}
    if P is not None:
        obj["pointset"] = pointset_to_json(P)
    if C is not None:
        obj["container"] = container_to_json(C)
    print(json.dumps(obj, sort_keys=True))
    return 0


def _cmd_verify(args, tol) -> int:
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
    _add_common(p, _cmd_solve, needs_points=True)
    p.add_argument("--certificate", action="store_true", help="attach an optimality certificate")

    p = sub.add_parser("radii", help="k-th core radius with witness")
    _add_common(p, _cmd_radii, needs_points=True)
    p.add_argument("--k", type=int, required=True)
    _add_budget(p)

    p = sub.add_parser("coreset", help="construct or size core-sets")
    _add_common(p, _cmd_coreset, needs_points=True)
    p.add_argument("--eps", type=float, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true", help="farthest-point greedy (default)")
    mode.add_argument("--exact", action="store_true", help="exact minimum size via core radii")
    mode.add_argument("--zero", action="store_true", help="zero-core-set from the solver support")
    _add_budget(p)

    p = sub.add_parser("asym", help="Minkowski asymmetry of a container")
    _add_common(p, _cmd_asym, needs_points=False)

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

    p = sub.add_parser("verify", help="run experiments; exit 0 iff all rows pass")
    p.add_argument("experiment", nargs="?", choices=experiment_ids(), default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--out", default=None, help="append report to this file instead of stdout")
    p.add_argument("--random-instances", type=int, default=None)
    _add_common(p, _cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        tol = Tolerance(feas=args.tol_feas, pivot=args.tol_pivot, eq=args.tol_eq)
        if args.needs_points is None:  # verify reads no instance and prints its own report
            return args.fn(args, tol)
        P, C = _read_instance(args)
        if C is None or (args.needs_points and P is None):
            parts = "both a point set and a container" if args.needs_points else "a container"
            raise _CliError(f"{args.command} needs {parts}")
        _emit(args.fn(args, P, C, tol), args)
        return 0
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
