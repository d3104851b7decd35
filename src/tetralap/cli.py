"""Command-line entry point.

Every subcommand writes a deterministic document (JSON, CSV, OBJ or
text) to --output or stdout, so repeated runs with the same flags are
byte-identical.  The library returns data; this module alone turns it
into text, as blocks of at most _BLOCK rows formatted from its columns.
Exit codes: 0 ok, 2 usage, 3 domain error (caps, invalid values), 4 I/O
failure.  Relative --output paths resolve against $TETRALAP_OUTDIR when
it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import re
import sys
from collections.abc import Iterator

import numpy as np

from .fractal_graph import (
    Address,
    LevelCapError,
    _word_digits,
    address_strings,
    build_level,
    vertex_coords,
)
from .energy import harmonic_family, harmonize
from .laplacian import renormalized_laplacian
from .decimation import (
    _BLOCK,
    DIMENSION_CONSTANTS,
    counting_function,
    enumerate_spectrum,
    limit_spectrum,
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


def _float_texts(column) -> list[str]:
    """repr of each float of column, repr called once per distinct float64 bit
    pattern: a level's coordinates take a few hundred values among thousands.
    Grouped by bits, not by ==, so 0.0 and -0.0 keep their own texts."""
    bits = np.asarray(column, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _texts(column) -> list[str]:
    """The text of each item of a column, as CSV and JSON write it: a column of
    floats by _float_texts, of strs as it is, and any other item by repr.  An
    array's items are of its dtype's kind; a list's are of their own types."""
    kinds = {column.dtype.kind} if isinstance(column, np.ndarray) else set(map(type, column))
    if kinds <= {"f", float}:
        return _float_texts(column)
    items = column.tolist() if isinstance(column, np.ndarray) else column
    return items if kinds <= {"U", str} else list(map(repr, items))


def _blocks(*columns):
    """Equal-length columns, _BLOCK rows at a time."""
    for start in range(0, len(columns[0]), _BLOCK):
        yield [column[start:start + _BLOCK] for column in columns]


def _rows(template: str, blocks, sep: str = ""):
    """One text per block of columns: each row one join of the template's parts
    with its texts in the %s slots, rows joined by sep, and sep before every
    block but the first."""
    parts = list(map(itertools.repeat, template.split("%s")))
    for n, columns in enumerate(blocks):
        texts = [x for pair in zip(parts, map(_texts, columns)) for x in pair] + parts[-1:]
        yield (sep if n else "") + sep.join(map("".join, zip(*texts)))


def _csv(header: str, columns):
    """A CSV document in blocks, from equal-length columns, each one row field."""
    yield header + "\n"
    yield from _rows(",".join(["%s"] * len(columns)) + "\n", _blocks(*columns))


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2) and a newline, for small nested documents; a
    dict key that is not a str raises TypeError, where json.dumps writes a str."""
    if not all(isinstance(key, str) for key in _keys(payload)):
        raise TypeError("JSON object keys must be str")
    return json.dumps(payload, indent=2) + "\n"


def _keys(payload):
    """Every dict key inside payload."""
    if isinstance(payload, dict):
        yield from payload
        payload = list(payload.values())
    if isinstance(payload, (list, tuple)):
        for item in payload:
            yield from _keys(item)


def _template(shape) -> str:
    """The template of a JSON item of this shape: each None in it is a slot."""
    return json.dumps(shape, indent=2).replace("null", "%s")


def _json_list(template: str, blocks, brackets: str = "[]"):
    """A member's JSON list of one item per row, or with brackets "{}" its object."""
    nl = "\n    "
    yield brackets[0] + nl
    yield from _rows(template.replace("\n", nl), blocks, "," + nl)
    yield "\n  " + brackets[1]


def _json_document(members: dict):
    """json.dumps(members, indent=2) and a newline, in blocks: an iterator
    member is the blocks of its text, every other member goes to _json_text."""
    yield "{"
    for n, (key, value) in enumerate(members.items()):
        yield f'{"," if n else ""}\n  {json.dumps(key)}: '
        if isinstance(value, Iterator):
            yield from value
        else:
            yield _json_text(value)[:-1].replace("\n", "\n  ")
    yield "\n}\n"


def _table_list(table):
    """The table's records; a branches string needs no escape, for it holds only - and +."""
    shape = {field: "%s" if dtype is np.str_ else None for field, dtype in table.COLUMNS.values()}
    return _json_list(_template(shape), _blocks(*(getattr(table, name) for name in table.COLUMNS)))


def _word_texts(keys, m: int) -> list[str]:
    """The JSON text of the word list of each level-m vertex key, at a graph
    document's indent: the letters are spelled as a string, then joined."""
    chars = np.zeros((len(keys), m + 1), np.uint8)  # one NUL column more, so level 0 has a width
    chars[:, :m] = np.frombuffer(b"\x000123", np.uint8)[_word_digits(keys, m)]  # digit 0 is NUL
    words = chars.view(f"S{m + 1}")[:, 0].astype(str).tolist()  # numpy strips the NULs
    sep = ",\n        "
    return [f"[\n        {sep.join(w)}\n      ]" if w else "[]" for w in words]


def _cmd_build_graph(args: argparse.Namespace):
    g = build_level(args.level)
    xyz = vertex_coords(g)
    if args.format == "json":
        vertices = ([ids, _word_texts(keys, g.level), keys % 4, *c.T]
                    for ids, keys, c in _blocks(range(g.n_vertices), g.keys, xyz))
        return _json_document({
            "level": g.level,
            "vertices": _json_list(_template({"id": None, "word": None, "base": None,
                                              "xyz": [None] * 3}), vertices),
            "edges": _json_list(_template([None, None]), _blocks(*g.edges.T)),
        })
    # each 1-based vertex id is formatted once as a line start and once as a line end
    ids = range(1, g.n_vertices + 1)
    starts = np.array([f"l {i}" for i in ids], dtype=object)
    ends = np.array([f" {j}\n" for j in ids], dtype=object)
    lines = ("".join((starts[e[:, 0]] + ends[e[:, 1]]).tolist()) for e, in _blocks(g.edges))
    return itertools.chain([f"# sierpinski tetrahedron level {g.level}\n"],
                           _rows("v %s %s %s\n", _blocks(*xyz.T)), lines)


def _cmd_harmonic(args: argparse.Namespace):
    u = harmonize(args.boundary, args.level)
    addresses = address_strings(u.graph)
    if args.format == "json":
        return _json_document({"level": args.level, "boundary": list(args.boundary),
                               "values": _json_list('"%s": %s', _blocks(addresses, u.values), "{}")})
    return _csv("address,x,y,z,value", [addresses, *vertex_coords(u.graph).T, u.values])


def _cmd_spectrum(args: argparse.Namespace):
    table = enumerate_spectrum(args.level)
    if args.format == "csv":
        return _csv(",".join(table.fields), [getattr(table, n) for n in table.COLUMNS])
    return _json_document({"level": table.level, "total_multiplicity": table.total_multiplicity,
                           "records": _table_list(table)})


def _cmd_limit_spectrum(args: argparse.Namespace):
    if args.fit and args.format != "json":
        raise ValueError("--fit is written only in the JSON format")
    limits = limit_spectrum(args.births, args.count)
    if args.format == "csv":
        return _csv(",".join(limits.fields), [getattr(limits, n) for n in limits.COLUMNS])
    doc = {"limit_eigenvalues": _table_list(limits)}
    if args.fit:
        alpha, diag = weyl_fit(limits)
        doc["weyl_fit"] = {
            "alpha_hat": alpha,
            "alpha_expected": DIMENSION_CONSTANTS.weyl_alpha,
            **dataclasses.asdict(diag),
        }
    return _json_document(doc)


def _cmd_counting(args: argparse.Namespace):
    mode = "with" if args.use_limit else "without"
    for flag in ("level",) if args.use_limit else ("births", "count"):
        if flag in args:  # the parser sets only the flags given
            raise ValueError(f"--{flag} does not apply {mode} --limit")
    spectrum = (limit_spectrum(getattr(args, "births", LIMIT_BIRTHS),
                               getattr(args, "count", LIMIT_COUNT))
                if args.use_limit else enumerate_spectrum(getattr(args, "level", 3)))
    points = [spectrum.values, counting_function(spectrum, spectrum.values)]
    if args.format == "json":
        return _json_document({"points": _json_list(_template([None, None]), _blocks(*points))})
    return _csv("x,N", points)


def _cmd_laplacian_check(args: argparse.Namespace):
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
    probes, names = probes[order], names[order]
    levels = range(args.level, top + 1)
    values = [renormalized_laplacian(u(m), u(m).graph.indices_of(g)[probes]) for m in levels]
    return _csv("level,address,value",
                [np.repeat(levels, len(names)), np.tile(names, len(levels)), np.concatenate(values)])


def _cmd_oracle_compare(args: argparse.Namespace):
    oracle_values = oracle.jacobi_eigen(oracle.assemble(args.level)).values
    table = enumerate_spectrum(args.level)
    expanded = np.repeat(table.values, table.multiplicities)  # ascending
    if len(oracle_values) != len(expanded):
        raise ValueError(f"the oracle has {len(oracle_values)} eigenvalues, decimation {len(expanded)}")
    diffs, index = np.abs(oracle_values - expanded), np.arange(len(expanded))
    if (worst := diffs.max()) > ORACLE_TOL:
        raise ValueError(
            f"oracle and decimation disagree: max |diff| {worst:.3e} > tol {ORACLE_TOL:.1e}"
        )
    return _csv("level,index,oracle_eigenvalue,decimation_eigenvalue,abs_diff",
                [np.full_like(index, args.level), index, oracle_values, expanded, diffs])


def _cmd_constants(args: argparse.Namespace):
    table = DIMENSION_CONSTANTS.as_dict()
    if args.format == "json":
        return [_json_text(table)]
    return [f"{name}={entry['value']!r}  # {entry['formula']}\n" for name, entry in table.items()]


def run(args: argparse.Namespace) -> int:
    """Execute one configured subcommand; returns the exit status.  A handler checks
    its input before it returns its blocks, so a refused run writes nothing."""
    try:
        blocks = args.handler(args)
    except (LevelCapError, ValueError, KeyError) as exc:
        message = str(exc) if not isinstance(exc, KeyError) else str(exc.args[0])
        print(json.dumps({"error": {"code": EXIT_DOMAIN, "message": message}}), file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _write(blocks, args.output)
    except OSError as exc:
        print(json.dumps({"error": {"code": EXIT_IO, "message": str(exc)}}), file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write(blocks, path: str | None):
    """Write the blocks to stdout, or to a temporary file beside path that then
    replaces it, so a run that fails leaves no partial document at path."""
    if path is None:
        sys.stdout.writelines(blocks)
        return
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    if os.path.exists(path) and not os.path.isfile(path):  # a device or a pipe
        with open(path, "w") as fh:
            fh.writelines(blocks)
        return
    head, tail = os.path.split(os.path.realpath(path))  # a link's target is replaced
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(temp, "x")  # created with the umask's mode, as path would be
    try:
        with fh:
            fh.writelines(blocks)
        os.replace(temp, os.path.join(head, tail))
    except BaseException:
        os.remove(temp)
        raise


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
