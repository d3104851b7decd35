"""Command-line entry point.

Every subcommand writes a deterministic document (JSON, CSV, OBJ or
text) to --output or stdout, so repeated runs with the same flags are
byte-identical.  The library returns data; this module alone turns it
into text, every JSON document through _json_text and every CSV
document through _csv.  Exit codes: 0 ok, 2 usage, 3 domain error
(caps, invalid values), 4 I/O failure.  Relative --output paths resolve
against $TETRALAP_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import os
import re
import sys
from itertools import zip_longest

import numpy as np

from .fractal_graph import (
    Address,
    LevelCapError,
    address_strings,
    build_level,
    graph_json,
    vertex_coords,
)
from .energy import harmonic_family, harmonize
from .laplacian import renormalized_laplacian
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

#: Default largest birth level and count of limit-spectrum and counting --limit.
LIMIT_BIRTHS, LIMIT_COUNT = 6, 100


def _boundary(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("boundary needs exactly four comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed boundary values: {text!r}")


_quote = json.encoder.encode_basestring_ascii

#: Exact scalar types besides float and the text json.dumps gives each.
_SCALAR_TEXT = {int: int.__repr__, str: _quote}


def _float_texts(column) -> list[str]:
    """repr of each float of column, repr called once per distinct float64 bit
    pattern: a level's coordinates take a few hundred values among thousands.
    Grouped by bits, not by ==, so 0.0 and -0.0 keep their own texts."""
    bits = np.asarray(column, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _json_text(payload) -> str:
    """The text of json.dumps with an indent of 2, and a newline, written a column at a time.

    Dict keys must be str, as in every document here; any other key raises TypeError.
    """
    return _column([payload], "\n")[0] + "\n"


def _column(items, nl: str) -> list[str]:
    """The JSON text of each item; nl is the newline and indent its lines start with.

    A column of finite floats is converted by _float_texts, and a column of
    one other exact scalar type in one map.  Two or more dicts with the same
    keys fill one template from their per-key columns; two or more lists and
    tuples, not all empty, fill one template per length from their
    per-position columns.  Every other item is written on its own:
    containers by _container, leaves by json.dumps.
    """
    kinds = set(map(type, items))
    if kinds == {float}:
        floats = np.array(items)
        if np.isfinite(floats).all():  # json.dumps writes NaN and Infinity its own way
            return _float_texts(floats)
    elif len(kinds) == 1 and (convert := _SCALAR_TEXT.get(next(iter(kinds)))) is not None:
        return list(map(convert, items))
    inner = nl + "  "
    if len(items) > 1 and kinds == {dict}:
        keys = list(items[0])
        if keys and all(map(keys.__eq__, map(list, items))):
            template = _wrap("{", [_quote(k).replace("%", "%%") + ": %s" for k in keys], "}", nl)
            columns = [_column([d[k] for d in items], inner) for k in keys]
            return list(map(template.__mod__, zip(*columns)))
    if len(items) > 1 and kinds <= {list, tuple} and any(map(len, items)):
        lengths = list(map(len, items))
        top = max(lengths)
        templates = {w: (_wrap("[", ["%s"] * w, "]", nl) if w else "[]") + "%.0s" * (top - w)
                     for w in set(lengths)}
        # 0 pads the shorter items to the longest; their "%.0s" slots write nothing for it
        columns = [_column(c, inner) for c in zip_longest(*items, fillvalue=0)]
        return list(map(operator.mod, map(templates.__getitem__, lengths), zip(*columns)))
    return [_container(x, nl) if isinstance(x, (dict, list, tuple)) else json.dumps(x)
            for x in items]


def _container(x, nl: str) -> str:
    """The JSON text of one dict, list or tuple, its items converted as one column."""
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = nl + "  "
    if isinstance(x, dict):
        values = _column(list(x.values()), inner)
        return _wrap("{", map(": ".join, zip(map(_quote, x), values)), "}", nl)
    return _wrap("[", _column(list(x), inner), "]", nl)


def _wrap(open_: str, parts, close: str, nl: str) -> str:
    """A container's text from its item texts, one item per line, indented below nl."""
    inner = nl + "  "
    return open_ + inner + ("," + inner).join(parts) + nl + close


def _lines_text(lines) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, columns) -> str:
    """CSV text from equal-length columns, each of one type: a str column as it
    is, a float column by _float_texts and every other column by repr, so
    floats round-trip."""
    return _lines_text([header, *map(",".join, zip(*map(_csv_texts, columns)))])


def _csv_texts(column):
    if column and isinstance(column[0], str):
        return column
    return _float_texts(column) if set(map(type, column)) == {float} else map(repr, column)


def _table_csv(table) -> str:
    return _csv(",".join(table.fields), [getattr(table, name).tolist() for name in table.COLUMNS])


def _cmd_build_graph(args: argparse.Namespace) -> str:
    g = build_level(args.level)
    if args.format == "json":
        return _json_text(graph_json(g))
    lines = [f"# sierpinski tetrahedron level {g.level}"]
    xs, ys, zs = map(_float_texts, vertex_coords(g).T)
    lines += [f"v {x} {y} {z}" for x, y, z in zip(xs, ys, zs)]
    # each 1-based vertex id is formatted once as a line start and once as a line end
    ids = range(1, g.n_vertices + 1)
    starts = np.array([f"l {i}" for i in ids], dtype=object)
    ends = np.array([f" {j}" for j in ids], dtype=object)
    lines += (starts[g.edges[:, 0]] + ends[g.edges[:, 1]]).tolist()
    return _lines_text(lines)


def _cmd_harmonic(args: argparse.Namespace) -> str:
    u = harmonize(args.boundary, args.level)
    addresses = address_strings(u.graph).tolist()
    values = u.values.tolist()
    if args.format == "json":
        return _json_text(
            {
                "level": args.level,
                "boundary": list(args.boundary),
                "values": dict(zip(addresses, values)),
            }
        )
    return _csv("address,x,y,z,value", [addresses, *vertex_coords(u.graph).T.tolist(), values])


def _cmd_spectrum(args: argparse.Namespace) -> str:
    if args.format == "csv":
        return _table_csv(enumerate_spectrum(args.level))
    # the table is freed before the document is written
    return _json_text(spectrum_json(enumerate_spectrum(args.level)))


def _cmd_limit_spectrum(args: argparse.Namespace) -> str:
    if args.fit and args.format != "json":
        raise ValueError("--fit is written only in the JSON format")
    limits = limit_spectrum(args.births, args.count)
    if args.format == "csv":
        return _table_csv(limits)
    doc = limit_spectrum_json(limits)
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
    spectrum = (limit_spectrum(getattr(args, "births", LIMIT_BIRTHS),
                               getattr(args, "count", LIMIT_COUNT))
                if args.use_limit else enumerate_spectrum(getattr(args, "level", 3)))
    doc = counting_json(spectrum)
    if args.format == "json":
        return _json_text(doc)
    return _csv("x,N", list(zip(*doc["points"])))


def _cmd_laplacian_check(args: argparse.Namespace) -> str:
    if args.depth < 0:
        raise ValueError(f"depth must be nonnegative, got {args.depth}")
    if args.level < 1:  # level 0 has no interior vertex to probe
        raise ValueError(f"level must be nonnegative and nonzero, got {args.level}")
    top, cap = args.level + args.depth, fractal_graph.DEFAULT_LEVEL_CAP
    if top > cap:  # refused before any graph is built
        raise LevelCapError(f"--level + --depth is level {top}, above the graph cap {cap}")
    u = harmonic_family(args.boundary)
    x = None if args.vertex is None else Address.from_string(args.vertex)
    g = u(args.level).graph
    probes = np.array(g.interior if x is None else [g.index_of(x)])
    if probes[0] in g.boundary:  # only a --vertex can name a corner
        raise ValueError(f"graph Laplacian is defined on interior vertices only, got {x}")
    names = address_strings(g)[probes]
    order = np.argsort(names)  # the order of Python's str sort
    probes, names = probes[order], names[order].tolist()
    levels = range(args.level, top + 1)
    values = [renormalized_laplacian(u(m), u(m).graph.indices_of(g)[probes]) for m in levels]
    return _csv("level,address,value",
                [np.repeat(levels, len(names)).tolist(), names * len(levels),
                 np.concatenate(values).tolist()])


def _cmd_oracle_compare(args: argparse.Namespace) -> str:
    oracle_values = oracle.jacobi_eigen(oracle.assemble(args.level)).values.tolist()
    table = enumerate_spectrum(args.level)
    expanded = np.repeat(table.values, table.multiplicities).tolist()  # ascending, as floats
    if len(oracle_values) != len(expanded):
        raise ValueError(f"the oracle has {len(oracle_values)} eigenvalues, decimation {len(expanded)}")
    rows = [(args.level, i, ov, dv, abs(ov - dv))
            for i, (ov, dv) in enumerate(zip(oracle_values, expanded))]
    worst = max(row[-1] for row in rows)
    if worst > ORACLE_TOL:
        raise ValueError(
            f"oracle and decimation disagree: max |diff| {worst:.3e} > tol {ORACLE_TOL:.1e}"
        )
    return _csv("level,index,oracle_eigenvalue,decimation_eigenvalue,abs_diff", list(zip(*rows)))


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


@functools.cache  # parse_args leaves the parser as it found it
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
    p.add_argument("--births", type=int, default=LIMIT_BIRTHS,
                   help="largest birth level enumerated")
    p.add_argument("--count", type=int, default=LIMIT_COUNT)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--fit", action="store_true", help="append the counting-exponent fit")

    p = add("counting", _cmd_counting, help="eigenvalue counting function",
            argument_default=argparse.SUPPRESS)
    p.add_argument("--level", type=int, help="graph level counted (default 3)")
    p.add_argument("--limit", action="store_true", dest="use_limit", default=False,
                   help="count limit eigenvalues instead of one graph level")
    p.add_argument("--births", type=int,
                   help=f"largest birth level, with --limit (default {LIMIT_BIRTHS})")
    p.add_argument("--count", type=int, help=f"limit eigenvalues counted (default {LIMIT_COUNT})")
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
