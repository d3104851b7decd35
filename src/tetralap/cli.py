"""Command-line entry point.

Every subcommand writes a deterministic document (JSON, CSV or OBJ) to
--output or stdout, so repeated runs with the same flags are
byte-identical.  Exit codes: 0 ok, 2 usage, 3 domain error (caps,
invalid values), 4 I/O failure.  Relative --output paths resolve
against $TETRALAP_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

from .fractal_graph import (
    Address,
    LevelCapError,
    build_level,
    graph_json,
    graph_obj,
)
from .energy import harmonic_family, harmonize, vertex_function_csv
from .laplacian import laplacian_csv, pointwise_laplacian_profile
from .decimation import (
    DIMENSION_CONSTANTS,
    counting_csv,
    counting_json,
    enumerate_spectrum,
    limit_spectrum,
    limit_spectrum_csv,
    limit_spectrum_json,
    spectrum_csv,
    spectrum_json,
    weyl_fit,
)
from . import oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

OUTDIR_ENV = "TETRALAP_OUTDIR"


def _boundary(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("boundary needs exactly four comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed boundary values: {text!r}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_build_graph(args: argparse.Namespace) -> str:
    g = build_level(args.level)
    if args.format == "obj":
        return graph_obj(g)
    return _json_text(graph_json(g))


def _cmd_harmonic(args: argparse.Namespace) -> str:
    u = harmonize(args.boundary, args.level)
    if args.format == "json":
        return _json_text(
            {
                "level": args.level,
                "boundary": list(args.boundary),
                "values": {str(a): float(v) for a, v in zip(u.graph.vertices, u.values)},
            }
        )
    return vertex_function_csv(u)


def _cmd_spectrum(args: argparse.Namespace) -> str:
    table = enumerate_spectrum(args.level)
    if args.format == "csv":
        return spectrum_csv(table)
    return _json_text(spectrum_json(table))


def _cmd_limit_spectrum(args: argparse.Namespace) -> str:
    limits = limit_spectrum(args.births, args.count)
    if args.format == "csv":
        return limit_spectrum_csv(limits)
    payload = limit_spectrum_json(limits)
    if args.fit:
        alpha, diag = weyl_fit(limits)
        payload["weyl_fit"] = {
            "alpha_hat": alpha,
            "alpha_expected": DIMENSION_CONSTANTS.weyl_alpha,
            **dataclasses.asdict(diag),
        }
    return _json_text(payload)


def _cmd_counting(args: argparse.Namespace) -> str:
    if args.use_limit:
        records = limit_spectrum(args.births, args.count)
    else:
        records = enumerate_spectrum(args.level)
    if args.format == "json":
        return _json_text(counting_json(records))
    return counting_csv(records)


def _cmd_laplacian_check(args: argparse.Namespace) -> str:
    u = harmonic_family(args.boundary)
    base = build_level(args.level)
    if args.vertex is not None:
        targets = [Address.from_string(args.vertex)]
    else:
        targets = base.vertices[4:]
    estimates = []
    for x in targets:
        estimates.extend(
            pointwise_laplacian_profile(u, x, range(args.level, args.level + args.depth + 1))
        )
    estimates.sort(key=lambda e: (e.level, str(e.vertex)))
    return laplacian_csv(estimates)


def _cmd_oracle_compare(args: argparse.Namespace) -> str:
    g = build_level(args.level)
    decomp = oracle.jacobi_eigen(oracle.assemble(args.level, graph=g))
    table = enumerate_spectrum(args.level)
    expanded = []
    for r in table.records:
        expanded.extend([r.value] * r.multiplicity)
    expanded.sort()
    lines = ["level,index,oracle_eigenvalue,decimation_eigenvalue,abs_diff"]
    worst = 0.0
    for i, (ov, dv) in enumerate(zip(decomp.values, expanded)):
        diff = abs(float(ov) - dv)
        worst = max(worst, diff)
        lines.append(f"{args.level},{i},{float(ov)!r},{dv!r},{diff!r}")
    body = "\n".join(lines) + "\n"
    if worst > args.tol:
        raise ValueError(
            f"oracle and decimation disagree: max |diff| {worst:.3e} > tol {args.tol:.1e}"
        )
    return body


def _cmd_constants(args: argparse.Namespace) -> str:
    table = DIMENSION_CONSTANTS.as_dict()
    if args.format == "json":
        return _json_text(table)
    lines = [f"{name}={entry['value']!r}  # {entry['formula']}" for name, entry in table.items()]
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "build-graph": _cmd_build_graph,
    "harmonic": _cmd_harmonic,
    "spectrum": _cmd_spectrum,
    "limit-spectrum": _cmd_limit_spectrum,
    "counting": _cmd_counting,
    "laplacian-check": _cmd_laplacian_check,
    "oracle-compare": _cmd_oracle_compare,
    "constants": _cmd_constants,
}


def run(args: argparse.Namespace) -> int:
    """Execute one configured subcommand; returns the exit status."""
    try:
        text = _HANDLERS[args.subcommand](args)
    except (LevelCapError, ValueError, KeyError) as exc:
        message = str(exc) if not isinstance(exc, KeyError) else str(exc.args[0])
        print(json.dumps({"error": {"code": EXIT_DOMAIN, "message": message}}), file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _write(text, args.output)
    except OSError as exc:
        print(json.dumps({"error": {"code": EXIT_IO, "message": str(exc)}}), file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w") as fh:
        fh.write(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetralap",
        description="Graph energies, Laplacians and the Dirichlet spectrum "
        "of the Sierpinski tetrahedron",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        return p

    p = add("build-graph", help="export a level graph")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("json", "obj"), default="json")

    p = add("harmonic", help="harmonic function with given corner values")
    p.add_argument("--boundary", type=_boundary, required=True, metavar="a,b,c,d")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("spectrum", help="complete Dirichlet spectrum at one level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("limit-spectrum", help="smallest eigenvalues of the limit operator")
    p.add_argument("--births", type=int, default=6, help="largest birth level enumerated")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--fit", action="store_true", help="append the counting-exponent fit")

    p = add("counting", help="eigenvalue counting function")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--limit", action="store_true", dest="use_limit",
                   help="count limit eigenvalues instead of one graph level")
    p.add_argument("--births", type=int, default=6)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("laplacian-check", help="renormalized-Laplacian convergence table")
    p.add_argument("--boundary", type=_boundary, default=(1.0, 0.0, 0.0, 0.0),
                   metavar="a,b,c,d")
    p.add_argument("--level", type=int, default=1, help="level whose interior is probed")
    p.add_argument("--depth", type=int, default=3, help="how many further levels to report")
    p.add_argument("--vertex", default=None, help="probe one address, e.g. '0:1'")

    p = add("oracle-compare", help="dense-oracle vs decimation eigenvalues")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("constants", help="dimension and scaling constants")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _glue_negative_values(argv):
    # argparse takes "--boundary -0.3,..." for two flags; pass it as "--boundary=-0.3,..."
    out = []
    for tok in argv:
        if out and out[-1] == "--boundary" and re.match(r"-[\d.]", tok):
            out[-1] = f"--boundary={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return run(_parser().parse_args(_glue_negative_values(argv)))


if __name__ == "__main__":
    sys.exit(main())
