"""The three benchmark workloads: seeded inputs, one job, and its checks.

A workload's fixed job list is generated once from the seed; a pass
runs that list in order.  The seed changes input values (and the order
of the cli session), never the levels, so the work per job is fixed.
Each job returns the list of checks it failed (empty when correct).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tetralap as tl
from tetralap import cli as tl_cli

FINE_LEVEL = 7
SPECTRUM_LEVEL = 15
LIMIT_BIRTHS = 12
ORACLE_LEVEL = 3
FAMILY_LEVEL = 5
SMALLEST_LIMIT = 25.813339310469095
WEYL_ALPHA = math.log(4.0) / math.log(6.0)
LIMIT_COUNT_MAX = 2047  # lineages with births up to level 10


def n_vertices(m: int) -> int:
    return 2 * (4 ** m + 1)


def n_edges(m: int) -> int:
    return 6 * 4 ** m


def n_records(m: int) -> int:
    return 2 ** (m + 1) - 1


def total_multiplicity(m: int) -> int:
    return 2 * (4 ** m - 1)


@dataclass
class Context:
    """What a job may touch besides its inputs.

    ``span`` opens a span (a no-op class when tracing is off); ``add`` and
    ``peak`` record counters only while a recorder is attached.
    """

    span: type
    outdir: Path
    hashes: dict  # cli argv -> sha256 of its first checked document
    rec: object = None

    def add(self, name, amount):
        if self.rec is not None:
            self.rec.add(name, amount)

    def peak(self, name, value):
        if self.rec is not None:
            self.rec.peak(name, value)


@dataclass(frozen=True)
class Workload:
    name: str
    make_jobs: Callable[[int], list]
    run_job: Callable[[object, Context], list]
    computed_work: dict  # per job, derived from the sizes, not measured


def _fail(problems, ok, message):
    if not ok:
        problems.append(message)


# --- fine-grid ----------------------------------------------------------


def _corner_form(x, y) -> float:
    """E_0(x, y): the level-0 bilinear energy of corner data."""
    return sum((x[i] - x[j]) * (y[i] - y[j]) for i in range(4) for j in range(i + 1, 4))


def fine_grid_jobs(seed: int) -> list:
    rng = random.Random(seed)
    return [
        (
            tuple(rng.uniform(-1.0, 1.0) for _ in range(4)),
            tuple(rng.uniform(-1.0, 1.0) for _ in range(4)),
            rng.randrange(4),
        )
        for _ in range(2)
    ]


def fine_grid_job(job, ctx: Context) -> list:
    a, b, letter = job
    m = FINE_LEVEL
    graphs = {k: tl.build_level(k) for k in range(m + 1)}
    u = tl.harmonize(a, m, graphs=graphs)
    v = tl.harmonize(b, m, graphs=graphs)
    eu, ev = tl.energy(u), tl.energy(v)
    euv = 1.5 ** m * tl.energy_bilinear(u, v)
    lap = tl.interior_laplacian(u)
    residual = tl.gauss_green_residual(u, v)
    fluxes = [tl.normal_derivative(lambda k: u, tl.Address((), j), m).value for j in range(4)]
    sub = tl.cell_restriction(u, letter, target=graphs[m - 1])

    problems: list[str] = []
    for name, rep, x in (("u", eu, a), ("v", ev, b)):
        e0 = _corner_form(x, x)
        _fail(problems, abs(rep.normalized - e0) <= 1e-9 * e0,
              f"normalized energy of {name} {rep.normalized!r} != E0 {e0!r}")
    scale = math.sqrt(_corner_form(a, a) * _corner_form(b, b))
    _fail(problems, abs(euv - _corner_form(a, b)) <= 1e-9 * scale, "bilinear energy != E0(a, b)")
    bmax = max(abs(x) for x in a)
    _fail(problems, float(np.max(np.abs(lap))) <= 1e-12 * bmax,
          f"harmonic Laplacian {float(np.max(np.abs(lap)))!r} exceeds 1e-12 * max|boundary|")
    _fail(problems, abs(residual) <= 1e-9, f"Gauss-Green residual {residual!r}")
    _fail(problems, abs(sum(fluxes)) <= 1e-9 * max(abs(f) for f in fluxes),
          f"corner fluxes sum to {sum(fluxes)!r}")
    corners = [u.values[u.graph.index_of(tl.Address((letter,), j))] for j in range(4)]
    _fail(problems, list(sub.values[:4]) == corners, "cell restriction corners differ from u")
    return problems


FINE_GRID_WORK = {
    "graph_vertices": sum(n_vertices(k) for k in range(FINE_LEVEL + 1)),
    "graph_edges": sum(n_edges(k) for k in range(FINE_LEVEL + 1)),
    "harmonic_values": 2 * n_vertices(FINE_LEVEL),
}


# --- spectral -----------------------------------------------------------


def spectral_jobs(seed: int) -> list:
    rng = random.Random(seed)
    # born 6 at level 3 has multiplicity 4^2 + 2 = 18
    return [(rng.randrange(1000), rng.randrange(18))]


def _minus_child(lam: float) -> float:
    return lam / (3.0 + math.sqrt(9.0 - lam))


def spectral_job(job, ctx: Context) -> list:
    offset, member = job
    table = tl.enumerate_spectrum(SPECTRUM_LEVEL)
    back = tl.spectrum_from_json(json.loads(json.dumps(tl.spectrum_json(table))))
    limits = tl.limit_spectrum(LIMIT_BIRTHS, 4000 + offset)
    alpha, _ = tl.weyl_fit(limits)
    graphs = {k: tl.build_level(k) for k in range(ORACLE_LEVEL, FAMILY_LEVEL + 1)}
    decomp = tl.jacobi_eigen(tl.assemble(ORACLE_LEVEL, graph=graphs[ORACLE_LEVEL]))
    small = tl.enumerate_spectrum(ORACLE_LEVEL)
    family = tl.eigenfunction_family(
        tl.Lineage(ORACLE_LEVEL, 6.0), graphs=graphs,
        decompositions={ORACLE_LEVEL: decomp}, member=member,
    )
    u = family(FAMILY_LEVEL)

    problems: list[str] = []
    total = sum(r.multiplicity for r in table.records)
    _fail(problems, total == total_multiplicity(SPECTRUM_LEVEL), f"total multiplicity {total}")
    _fail(problems, back == table, "spectrum JSON round trip changed the table")
    low = limits[0].value
    _fail(problems, abs(low - SMALLEST_LIMIT) <= 1e-12 * SMALLEST_LIMIT,
          f"smallest limit eigenvalue {low!r}")
    _fail(problems, abs(alpha - WEYL_ALPHA) <= 0.02, f"Weyl alpha {alpha!r}")

    expanded = np.sort(np.repeat([r.value for r in small.records],
                                 [r.multiplicity for r in small.records]))
    diff = math.inf
    if expanded.shape == decomp.values.shape:
        diff = float(np.max(np.abs(decomp.values - expanded)))
    ctx.peak("oracle.max_abs_diff", diff)
    _fail(problems, diff <= 1e-8, f"oracle vs decimation max |diff| {diff!r}")

    lam = 6.0
    for _ in range(ORACLE_LEVEL, FAMILY_LEVEL):
        lam = _minus_child(lam)
    edges = np.array(list(u.graph.edges))
    i, j = edges[:, 0], edges[:, 1]
    minus_lap = np.zeros(u.graph.n_vertices)
    np.add.at(minus_lap, i, u.values[i] - u.values[j])
    np.add.at(minus_lap, j, u.values[j] - u.values[i])
    umax = float(np.max(np.abs(u.values)))
    defect = float(np.max(np.abs(minus_lap[4:] - lam * u.values[4:])))
    _fail(problems, umax > 0.0 and defect <= 1e-9 * umax,
          f"extended eigenfunction: max|-Lu - lam u| {defect!r}, max|u| {umax!r}")
    return problems


SPECTRAL_WORK = {
    "records": n_records(SPECTRUM_LEVEL) + n_records(LIMIT_BIRTHS) + n_records(ORACLE_LEVEL),
    "oracle_dim": total_multiplicity(ORACLE_LEVEL),
    "graph_vertices": sum(n_vertices(k) for k in range(ORACLE_LEVEL, FAMILY_LEVEL + 1)),
}


# --- cli-session --------------------------------------------------------


CLI_SUBCOMMANDS = (
    "build-graph", "harmonic", "spectrum", "limit-spectrum", "counting",
    "laplacian-check", "oracle-compare", "constants",
)


def cli_jobs(seed: int) -> list:
    """One session: 12 argv lists in seeded order, each writing its own file."""
    rng = random.Random(seed)

    def corners():
        return "--boundary=" + ",".join(f"{rng.uniform(-1.0, 1.0):.3f}" for _ in range(4))

    # counts vary in a narrow band so the seed moves values, not document sizes
    n_limit, n_count = rng.randint(2000, LIMIT_COUNT_MAX), rng.randint(2000, LIMIT_COUNT_MAX)
    argvs = [
        ["build-graph", "--level", "6", "--format", "obj", "--output", "graph6.obj"],
        ["build-graph", "--level", "5", "--format", "json", "--output", "graph5.json"],
        ["harmonic", corners(), "--level", "6", "--format", "csv", "--output", "harmonic6.csv"],
        ["harmonic", corners(), "--level", "5", "--format", "json", "--output", "harmonic5.json"],
        ["spectrum", "--level", "12", "--format", "json", "--output", "spectrum12.json"],
        ["spectrum", "--level", "12", "--format", "csv", "--output", "spectrum12.csv"],
        ["limit-spectrum", "--births", "10", "--count", str(n_limit), "--fit",
         "--output", "limit10.json"],
        ["counting", "--level", "10", "--format", "json", "--output", "counting10.json"],
        ["counting", "--limit", "--births", "10", "--count", str(n_count), "--format", "csv",
         "--output", "counting_limit.csv"],
        ["laplacian-check", corners(), "--level", "2", "--depth", "3",
         "--output", "laplacian2.csv"],
        ["oracle-compare", "--level", "2", "--output", "oracle2.csv"],
        ["constants", "--format", "json", "--output", "constants.json"],
    ]
    rng.shuffle(argvs)
    return argvs


def _check_document(argv, data: bytes) -> list:
    problems: list[str] = []
    name = argv[-1]
    if name == "graph6.obj":
        lines = data.decode().splitlines()
        nv = sum(line.startswith("v ") for line in lines)
        ne = sum(line.startswith("l ") for line in lines)
        _fail(problems, nv == n_vertices(6), f"OBJ has {nv} v lines")
        _fail(problems, ne == n_edges(6), f"OBJ has {ne} l lines")
    elif name == "spectrum12.json":
        doc = json.loads(data)
        total = sum(r["multiplicity"] for r in doc["records"])
        want = total_multiplicity(12)
        _fail(problems, total == want == doc["total_multiplicity"],
              f"spectrum JSON total multiplicity {total}")
    return problems


def cli_job(argv, ctx: Context) -> list:
    with ctx.span("cli." + argv[0]):
        try:
            code = tl_cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    if code != 0:
        return [f"{' '.join(argv)} exited with {code}"]
    data = (ctx.outdir / argv[-1]).read_bytes()
    ctx.add("cli.bytes_out", len(data))
    digest = hashlib.sha256(data).hexdigest()
    key = tuple(argv)
    if key not in ctx.hashes:
        # the first session's documents are checked in full; later
        # sessions must reproduce them byte for byte
        problems = _check_document(argv, data)
        if not problems:
            ctx.hashes[key] = digest
        return problems
    if digest != ctx.hashes[key]:
        return [f"{' '.join(argv)}: output differs from the first session"]
    return []


CLI_WORK = {
    "vertices_exported": 2 * n_vertices(6) + 2 * n_vertices(5),
    "edges_exported": n_edges(6) + n_edges(5),
    "records_exported": 2 * n_records(12) + n_records(10),
    "oracle_dim": total_multiplicity(2),
}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fine-grid", fine_grid_jobs, fine_grid_job, FINE_GRID_WORK),
        Workload("spectral", spectral_jobs, spectral_job, SPECTRAL_WORK),
        Workload("cli-session", cli_jobs, cli_job, CLI_WORK),
    )
}
