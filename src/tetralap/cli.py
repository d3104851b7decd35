"""Command-line entry point.

Every subcommand writes a deterministic document (JSON, CSV, OBJ or
text) to --output or stdout, so repeated runs with the same flags are
byte-identical.  The library returns data; this module alone turns it
into text, every CSV document through _csv.  Exit codes: 0 ok, 2 usage,
3 domain error (caps, invalid values), 4 I/O failure.  Relative
--output paths resolve against $TETRALAP_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from .fractal_graph import (
    Address,
    LevelCapError,
    build_level,
    graph_json,
    vertex_coords,
)
from .energy import harmonic_family, harmonize
from .laplacian import pointwise_laplacian
from .decimation import (
    DIMENSION_CONSTANTS,
    counting_json,
    enumerate_spectrum,
    limit_spectrum,
    limit_spectrum_json,
    spectrum_json,
    weyl_fit,
)
from . import fractal_graph, oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

OUTDIR_ENV = "TETRALAP_OUTDIR"

#: Largest |oracle - decimation| difference oracle-compare accepts.
ORACLE_TOL = 1e-8


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


def _lines_text(lines) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows) -> str:
    """CSV text: str fields as they are, every other field by repr, so floats round-trip."""
    return _lines_text(
        [header] + [",".join(f if isinstance(f, str) else repr(f) for f in row) for row in rows]
    )


def _records_csv(records) -> str:
    """JSON records as CSV, one column per key."""
    return _csv(",".join(records[0]), (r.values() for r in records))


def _cmd_build_graph(args: argparse.Namespace) -> str:
    g = build_level(args.level)
    if args.format == "json":
        return _json_text(graph_json(g))
    lines = [f"# sierpinski tetrahedron level {g.level}"]
    lines += [f"v {x!r} {y!r} {z!r}" for x, y, z in vertex_coords(g).tolist()]
    lines += [f"l {i + 1} {j + 1}" for i, j in g.edges.tolist()]
    return _lines_text(lines)


def _cmd_harmonic(args: argparse.Namespace) -> str:
    u = harmonize(args.boundary, args.level)
    addresses = [str(a) for a in u.graph.vertices]
    values = u.values.tolist()
    if args.format == "json":
        return _json_text(
            {
                "level": args.level,
                "boundary": list(args.boundary),
                "values": dict(zip(addresses, values)),
            }
        )
    coords = vertex_coords(u.graph).tolist()
    rows = ((a, *xyz, v) for a, xyz, v in zip(addresses, coords, values))
    return _csv("address,x,y,z,value", rows)


def _cmd_spectrum(args: argparse.Namespace) -> str:
    doc = spectrum_json(enumerate_spectrum(args.level))
    if args.format == "csv":
        return _records_csv(doc["records"])
    return _json_text(doc)


def _cmd_limit_spectrum(args: argparse.Namespace) -> str:
    if args.fit and args.format != "json":
        raise ValueError("--fit is written only in the JSON format")
    limits = limit_spectrum(args.births, args.count)
    doc = limit_spectrum_json(limits)
    if args.format == "csv":
        return _records_csv(doc["limit_eigenvalues"])
    if args.fit:
        alpha, diag = weyl_fit(limits)
        doc["weyl_fit"] = {
            "alpha_hat": alpha,
            "alpha_expected": DIMENSION_CONSTANTS.weyl_alpha,
            **dataclasses.asdict(diag),
        }
    return _json_text(doc)


def _cmd_counting(args: argparse.Namespace) -> str:
    mode = "with" if args.use_limit else "without"
    for flag in ("level",) if args.use_limit else ("births", "count"):
        if flag in args:  # the parser sets only the flags given
            raise ValueError(f"--{flag} does not apply {mode} --limit")
    spectrum = (limit_spectrum(getattr(args, "births", 6), getattr(args, "count", 100))
                if args.use_limit else enumerate_spectrum(getattr(args, "level", 3)))
    doc = counting_json(spectrum)
    if args.format == "json":
        return _json_text(doc)
    return _csv("x,N", doc["points"])


def _cmd_laplacian_check(args: argparse.Namespace) -> str:
    if args.depth < 0:
        raise ValueError(f"depth must be nonnegative, got {args.depth}")
    if args.level < 1:  # level 0 has no interior vertex to probe
        raise ValueError(f"level must be nonnegative and nonzero, got {args.level}")
    top, cap = args.level + args.depth, fractal_graph.DEFAULT_LEVEL_CAP
    if top > cap:  # refused before any graph is built
        raise LevelCapError(f"--level + --depth is level {top}, above the graph cap {cap}")
    u = harmonic_family(args.boundary)
    targets = ([Address.from_string(args.vertex)] if args.vertex is not None
               else u(args.level).graph.vertices[4:])
    levels = range(args.level, top + 1)
    estimates = [pointwise_laplacian(u, x, m) for x in targets for m in levels]
    estimates.sort(key=lambda e: (e.level, str(e.vertex)))
    return _csv("level,address,value", ((e.level, str(e.vertex), e.value) for e in estimates))


def _cmd_oracle_compare(args: argparse.Namespace) -> str:
    oracle_values = oracle.jacobi_eigen(oracle.assemble(args.level)).values.tolist()
    table = enumerate_spectrum(args.level)
    expanded = np.repeat(table.values, table.multiplicities).tolist()  # ascending, as floats
    rows = [
        (args.level, i, ov, dv, abs(ov - dv))
        for i, (ov, dv) in enumerate(zip(oracle_values, expanded))
    ]
    worst = max(row[-1] for row in rows)
    if worst > ORACLE_TOL:
        raise ValueError(
            f"oracle and decimation disagree: max |diff| {worst:.3e} > tol {ORACLE_TOL:.1e}"
        )
    return _csv("level,index,oracle_eigenvalue,decimation_eigenvalue,abs_diff", rows)


def _cmd_constants(args: argparse.Namespace) -> str:
    table = DIMENSION_CONSTANTS.as_dict()
    if args.format == "json":
        return _json_text(table)
    return _lines_text(
        f"{name}={entry['value']!r}  # {entry['formula']}" for name, entry in table.items()
    )


def run(args: argparse.Namespace) -> int:
    """Execute one configured subcommand; returns the exit status."""
    try:
        text = args.handler(args)
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

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        return p

    p = add("build-graph", _cmd_build_graph, help="export a level graph")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("json", "obj"), default="json")

    p = add("harmonic", _cmd_harmonic, help="harmonic function with given corner values")
    p.add_argument("--boundary", type=_boundary, required=True, metavar="a,b,c,d")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("spectrum", _cmd_spectrum, help="complete Dirichlet spectrum at one level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("limit-spectrum", _cmd_limit_spectrum,
            help="smallest eigenvalues of the limit operator")
    p.add_argument("--births", type=int, default=6, help="largest birth level enumerated")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--fit", action="store_true", help="append the counting-exponent fit")

    p = add("counting", _cmd_counting, help="eigenvalue counting function",
            argument_default=argparse.SUPPRESS)
    p.add_argument("--level", type=int, help="graph level counted (default 3)")
    p.add_argument("--limit", action="store_true", dest="use_limit", default=False,
                   help="count limit eigenvalues instead of one graph level")
    p.add_argument("--births", type=int, help="largest birth level, with --limit (default 6)")
    p.add_argument("--count", type=int, help="limit eigenvalues counted (default 100)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("laplacian-check", _cmd_laplacian_check,
            help="renormalized-Laplacian convergence table")
    p.add_argument("--boundary", type=_boundary, default=(1.0, 0.0, 0.0, 0.0),
                   metavar="a,b,c,d")
    p.add_argument("--level", type=int, default=1, help="level whose interior is probed")
    p.add_argument("--depth", type=int, default=3, help="how many further levels to report")
    p.add_argument("--vertex", default=None, help="probe one address, e.g. '0:1'")

    p = add("oracle-compare", _cmd_oracle_compare, help="dense-oracle vs decimation eigenvalues")
    p.add_argument("--level", type=int, required=True)

    p = add("constants", _cmd_constants, help="dimension and scaling constants")
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
