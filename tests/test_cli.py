"""Command-line interface: formats, determinism, round trips, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shlex
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tetralap import (
    cli, decimation, fractal_graph, laplacian, oracle, spectrum_from_json, enumerate_spectrum,
    harmonize,
)
from tetralap.cli import OUTDIR_ENV, _csv, _json_text, _parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_level2_json(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--level", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_multiplicity"] == 30
    assert len(doc["records"]) == 7


def test_spectrum_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--level", "3")
    assert code == 0
    assert spectrum_from_json(json.loads(out)) == enumerate_spectrum(3)


def test_harmonic_csv_figure_caption(capsys):
    code, out, _ = run_cli(
        capsys, "harmonic", "--boundary", "0,2,0,2", "--level", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "address,x,y,z,value"
    assert len(lines) == 11  # header + 10 vertices
    for row in lines[1:]:
        addr, x, y, z, value = row.split(",")
        float(x), float(y), float(z)  # columns must parse as plain floats
    values = {row.split(",")[0]: float(row.split(",")[4]) for row in lines[1:]}
    assert values["0:1"] == 1.0
    assert values["0:2"] == 2.0 / 3.0
    assert values["1:3"] == 4.0 / 3.0


def test_constants_text(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    assert "hausdorff=2.0" in out
    assert "ln(3/2)/ln(2)" in out
    assert "weyl_alpha=0.7737056144690831" in out


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "json")
    doc = json.loads(out)
    assert doc["weyl_alpha"]["formula"] == "ln(4)/ln(6)"
    assert doc["resistance_dim"]["value"] == pytest.approx(
        doc["weyl_alpha"]["value"] / (1 - doc["weyl_alpha"]["value"]), rel=1e-12
    )


def test_build_graph_obj(capsys):
    code, out, _ = run_cli(capsys, "build-graph", "--level", "1", "--format", "obj")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("v ")) == 10
    assert sum(1 for l in out.splitlines() if l.startswith("l ")) == 24


def test_graph_obj_wireframe(capsys):
    _, text, _ = run_cli(capsys, "build-graph", "--level", "1", "--format", "obj")
    lines = text.strip().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    assert len(vs) == 10
    assert sum(1 for l in lines if l.startswith("l ")) == 24
    assert not any(l.startswith("f ") for l in lines)
    # coordinates are plain parseable floats
    for l in vs:
        _, x, y, z = l.split()
        assert np.isfinite([float(x), float(y), float(z)]).all()


def test_build_graph_obj_lines(capsys):
    # the document as one f-string per line writes it, each float by repr
    g = fractal_graph.build_level(4)
    want = ["# sierpinski tetrahedron level 4"]
    want += [f"v {x!r} {y!r} {z!r}" for x, y, z in fractal_graph.vertex_coords(g).tolist()]
    want += [f"l {i + 1} {j + 1}" for i, j in g.edges.tolist()]
    code, out, _ = run_cli(capsys, "build-graph", "--level", "4", "--format", "obj")
    assert code == 0
    assert out == "\n".join(want) + "\n"


def test_build_graph_json_to_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run_cli(
        capsys, "build-graph", "--level", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["vertices"]) == 34


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TETRALAP_OUTDIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "constants", "--output", "c.txt")
    assert code == 0
    assert (tmp_path / "c.txt").exists()


def test_byte_identical_repeat_runs(capsys):
    _, first, _ = run_cli(capsys, "spectrum", "--level", "4", "--format", "csv")
    _, second, _ = run_cli(capsys, "spectrum", "--level", "4", "--format", "csv")
    assert first.encode() == second.encode()


def test_limit_spectrum_with_fit(capsys):
    code, out, _ = run_cli(
        capsys, "limit-spectrum", "--births", "6", "--count", "120", "--fit"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["limit_eigenvalues"]) == 120
    fit = doc["weyl_fit"]
    assert abs(fit["alpha_hat"] - fit["alpha_expected"]) < 0.05


def test_limit_spectrum_fit_needs_json(capsys):
    code, out, err = run_cli(
        capsys, "limit-spectrum", "--births", "6", "--count", "120", "--fit", "--format", "csv"
    )
    assert code == 3
    assert out == ""
    assert "--fit" in json.loads(err)["error"]["message"]


def test_counting_csv_level(capsys):
    code, out, _ = run_cli(capsys, "counting", "--level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,N"
    assert lines[-1].endswith(",30")


def test_counting_csv_monotone(capsys):
    _, text, _ = run_cli(capsys, "counting", "--level", "3")
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    ns = [int(n) for _, n in rows]
    assert ns == sorted(ns)
    assert ns[-1] == 126


def test_counting_limit_mode(capsys):
    code, out, _ = run_cli(
        capsys, "counting", "--limit", "--births", "4", "--count", "20"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 21


def test_laplacian_check_table(capsys):
    code, out, _ = run_cli(
        capsys, "laplacian-check", "--boundary", "1,0,0,0", "--level", "1",
        "--depth", "2", "--vertex", "0:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,address,value"
    assert len(lines) == 4  # levels 1..3 at one vertex
    assert all(abs(float(l.split(",")[2])) < 1e-9 for l in lines[1:])


def test_laplacian_csv_format(capsys):
    _, text, _ = run_cli(
        capsys, "laplacian-check", "--boundary", "1,0,0,0", "--level", "1",
        "--depth", "1", "--vertex", "0:1",
    )
    lines = text.strip().splitlines()
    assert lines[0] == "level,address,value"
    assert lines[1].startswith("1,0:1,")
    assert len(lines) == 3


def test_oracle_compare_level2(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,index,oracle_eigenvalue,decimation_eigenvalue,abs_diff"
    assert len(lines) == 31
    assert all(float(l.split(",")[4]) < 1e-8 for l in lines[1:])


def test_cap_violation_exit_code(capsys):
    code, out, err = run_cli(capsys, "build-graph", "--level", "99")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["code"] == 3


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "limit-spectrum", "--births", "2", "--count", "999")
    assert code == 3
    assert "lineages" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    "limit-spectrum --births 3 --count 5",
    "counting --limit --births 3 --count 5",
])
def test_unconverged_limit_exit_code(capsys, monkeypatch, argv):
    monkeypatch.setattr(decimation, "LIMIT_GENERATION_CAP", 2)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3
    assert out == ""
    assert "LIMIT_GENERATION_CAP = 2" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    "harmonic --boundary=1,0,0,0 --level -1 --format json",
    "laplacian-check --depth -2",
    "laplacian-check --level 0",
])
def test_negative_level_or_depth_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3
    assert out == ""
    assert "nonnegative" in json.loads(err)["error"]["message"]


@pytest.fixture
def built_levels(monkeypatch):
    """The levels build_level is asked for, in order, with the graph cap lowered to 4."""
    built = []
    real = fractal_graph.build_level
    monkeypatch.setattr(fractal_graph, "build_level", lambda m: built.append(m) or real(m))
    monkeypatch.setattr(fractal_graph, "DEFAULT_LEVEL_CAP", 4)
    return built


def test_laplacian_check_refuses_depth_above_cap_before_building(capsys, built_levels):
    code, out, err = run_cli(capsys, "laplacian-check", "--level", "1", "--depth", "6")
    assert code == 3
    assert out == ""
    assert "level 7" in json.loads(err)["error"]["message"]
    assert built_levels == []


def test_laplacian_check_builds_each_level_once(capsys, built_levels):
    code, _, _ = run_cli(capsys, "laplacian-check", "--level", "2", "--depth", "2")
    assert code == 0
    assert built_levels == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("argv, flag", [
    ("counting --level 5 --births 8", "--births"),
    ("counting --count 8", "--count"),
    ("counting --limit --level 9", "--level"),
])
def test_counting_refuses_other_mode_flags(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3
    assert out == ""
    assert flag in json.loads(err)["error"]["message"]


def test_counting_defaults(capsys):
    assert run_cli(capsys, "counting")[1] == run_cli(capsys, "counting", "--level", "3")[1]
    limit = run_cli(capsys, "counting", "--limit")[1]
    assert limit == run_cli(capsys, "counting", "--limit", "--births", "6", "--count", "100")[1]


def test_one_process_runs_each_command_afresh(capsys):
    # the parser is built once per process; the --level of one counting call
    # must not carry into the next, whose unset flags the parser leaves unset
    assert run_cli(capsys, "counting", "--level", "10")[0] == 0
    code, out, _ = run_cli(capsys, "counting", "--limit", "--births", "6")
    argv = [sys.executable, "-m", "tetralap.cli", "counting", "--limit", "--births", "6"]
    env = {**os.environ, "PYTHONPATH": str(Path(fractal_graph.__file__).resolve().parents[1])}
    fresh = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert (code, out.encode()) == (0, fresh.stdout)


def test_bad_flags_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harmonic", "--boundary", "1,2,3", "--level", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda values: values[:-1], "the oracle has 29 eigenvalues, decimation 30",
                 id="largest-dropped"),
    pytest.param(lambda values: values + 1e-3,
                 "oracle and decimation disagree: max |diff| 1.000e-03 > tol 1.0e-08", id="shifted"),
])
def test_oracle_compare_refuses_an_oracle_that_disagrees(capsys, monkeypatch, change, message):
    jacobi_eigen = oracle.jacobi_eigen

    def changed(matrix):
        decomposition = jacobi_eigen(matrix)
        return dataclasses.replace(decomposition, values=change(decomposition.values))

    monkeypatch.setattr(oracle, "jacobi_eigen", changed)
    code, out, err = run_cli(capsys, "oracle-compare", "--level", "2")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {"code": 3, "message": message}}


def test_malformed_boundary_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harmonic", "--boundary=a,b,c,d", "--level", "1"])
    assert exc.value.code == 2
    assert "malformed boundary values: 'a,b,c,d'" in capsys.readouterr().err


def test_oracle_compare_has_no_tol_flag(capsys):
    # the tolerance is the constant ORACLE_TOL, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["oracle-compare", "--level", "2", "--tol", "nan"])
    assert exc.value.code == 2


def test_negative_boundary_as_separate_value(capsys):
    _, glued, _ = run_cli(capsys, "harmonic", "--boundary=-0.3,0.7,0.1,-0.9", "--level", "1")
    code, spaced, _ = run_cli(capsys, "harmonic", "--boundary", "-0.3,0.7,0.1,-0.9", "--level", "1")
    assert code == 0
    assert spaced.encode() == glued.encode()
    code, _, _ = run_cli(capsys, "laplacian-check", "--boundary", "-1,0,0,0", "--level", "1")
    assert code == 0


# sha256 of documents that use only IEEE arithmetic and math.sqrt, so
# the bytes are the same on every platform; any change to them is a
# change in output
PINNED_DOCUMENTS = {
    "build-graph --level 3 --format obj":
        "1293f83ce2415679ec271b510629a73af387bd37ae93e60b245f60188cfa57e9",
    "build-graph --level 2 --format json":
        "f365ebb78fbe7410bc4eb1a84a2f908cae5a7c20bdc48d34acec7fcf3a09cf33",
    "build-graph --level 5 --format obj":
        "305968813fe4cf31dc7952c4f535be20427fe3b561d97d2eb63c3fa7deb6294c",
    "build-graph --level 5 --format json":
        "40294e5dde2e0b28e498b39760b8ad1d64113996e8bafcb42932efefa8ed0d9a",
    "build-graph --level 7 --format json":
        "d9584e35c9706e1a991d16843b47bfcae152c345924120c2152738c1743c9cae",
    "harmonic --boundary=-0.3,0.7,0.1,-0.9 --level 6 --format csv":
        "e15be08e9086ff8d553c49f73df74aef075d68d7de172a597a11244d5777b2ac",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 5 --format json":
        "fffdb9454984c510389d3df5034781bbc07a8b044ce20b47120b112fb321209d",
    "spectrum --level 8":
        "33c06d66d4fde5baa9e20f1a94fb0c9686b194cdd367e7186b31128bfcaf2d74",
    "spectrum --level 8 --format csv":
        "c9e34e251591657865171eb3c7d15c775c9fd5f456bdb3348ae704d3624c6144",
    "spectrum --level 12":
        "41122c6bca20561b3a654db42cb19ec2870eb2bfab3944017639d85895d620e2",
    "spectrum --level 12 --format csv":
        "641d2d3311604a9aa7828fcf25eb4b53d68f30056ff0756fa7c08f9a0e4f0d89",
    "spectrum --level 15":
        "b8fe28c9fdbb5437c046c21c147220261dfe51a9a619a95feaa118f60a2bf85d",
    "limit-spectrum --births 12 --count 8191 --fit":
        "f3565c9e9de4bf59cde5fff362bfe08b1c45d30b5db263c5d127a6c282a587fa",
    "limit-spectrum --births 12 --count 8191 --format csv":
        "4269d3e4b54bdcf8fc78f6c798754f89109747b99577b934e39d47ded4786bfb",
    "counting --level 12":
        "a92b80e1be88580d31e48eda656943ec2fe7a13e1edba2b4091fe19ed7146b6f",
    "counting --level 12 --format json":
        "8722d002a1b760cc3befcb3785d9c6ac6ac4fdb07c50ba1d46ac5846063a18da",
    "counting --limit --births 12 --count 8191":
        "b67961659e3d4274f05b6404f95213b871165682ebf5a7c5f685658d569b96e8",
    "limit-spectrum --births 6 --count 120 --format csv":
        "78e78f755049112d55c25a5dcbbf55a51db62d4bafb03a105ef4d96d8585e15d",
    "limit-spectrum --births 8 --count 500 --fit":
        "9d812456ce2242eb7fb9152e80e11dec539bc978a79f392ada629876b8cdc711",
    "counting --level 10 --format json":
        "dadc91ae51549fdc4fe14599aa164bce8672d8511c0fea54bd465718968de56a",
    "counting --limit --births 6 --count 100 --format json":
        "ef8489a84df1e74fd569c6294a918477578ebfd75537746e29aa57ce8a48f7b0",
    "counting --limit --births 8 --count 500":
        "e5d5379ad940bfc37bbbce0ecee0a0c3233db325824882265aec0f174b2e61ff",
    "laplacian-check --boundary 1,0,0,0 --level 1 --depth 3":
        "85b2145ff1ab984648ada6f298d2e01d48c6a9d014b9d5c084045e824626dbd3",
    "laplacian-check --boundary=0.3,-0.7,0.2,0.9 --level 2 --depth 3":
        "55dd53bdf7af812a6291ef5e32d00bba2f6304a77afaa63709ded30ccc0ff0e2",
    "laplacian-check --vertex 0:1 --level 1 --depth 4":
        "4d6c11b1317f4f740e1965e791f7fd04ba0dc81e6642347ec14642a5c2b3f9f4",
    "laplacian-check --level 5 --depth 3":
        "9d8c7973e88a721de4debaf02e0003012b4ac36bc61ca0b52852f9dad97e7ad8",
    "oracle-compare --level 2":
        "bc8ece0799c8185d26dfd74ed15d60adc7d565de89e8027cdfced753946e70f9",
    "oracle-compare --level 3":
        "e58618fc505eab97ab536e726e3f93a28ca566fa58ece28d3a2ca99dc64aeaac",
    "constants":
        "3fda5ef8be61d47d2c40ad25d7ef77d984f2a4b49b703e743296254af3f7ac97",
    "constants --format json":
        "4697c7b045b0a9fe5b179d5ae99aff8197d95f2e5044e37f9f2b1a22933cd64d",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DOCUMENTS))
def test_pinned_document_digests(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DOCUMENTS[argv]


# the same for large documents, which are hashed from --output as they are
# read back; level 9 writes up to 203 MB
LARGE_DOCUMENTS = {
    "build-graph --level 8 --format obj":
        "fba14f40c069fb7796ce25aae9efec30e036046c374d372aedbf07b314d48f35",
    "build-graph --level 8 --format json":
        "f67da72d5433312ad758fda0bdac7ff5e02311f09c8693ac9c1df828de78e72f",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 8 --format csv":
        "58c6e162f14adb07d6ec75a27c8ef7964e2c1c0eaefaa919ed0ebe5c997288f7",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 8 --format json":
        "6e4926cfe1bc5d877e06bd43064a177463c8473b7b6608e36e463769741d772d",
    "build-graph --level 9 --format obj":
        "f2456998a0177d6cfc51a6f7bec952179950c166eb665235885f778f81f9d000",
    "build-graph --level 9 --format json":
        "44d87749a92ec157c609b92f3c87cb3ba8de31966694c53a178cefb8a2a297a4",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 9 --format csv":
        "0c471722403fbfbba739feed78d09c746927aa4b824007b89097f01be35a74e3",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 9 --format json":
        "0cf251088079122ba49476dc5a00a8999b50364f1f2533c91651c288bc385815",
}


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=[pytest.mark.slow] if "--level 9" in argv else [])
    for argv in sorted(LARGE_DOCUMENTS)
])
def test_large_document_digests(tmp_path, capsys, argv):
    target = tmp_path / "doc"
    code, out, _ = run_cli(capsys, *argv.split(), "--output", str(target))
    assert (code, out) == (0, "")
    digest = hashlib.sha256()
    with open(target, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
    target.unlink()
    assert digest.hexdigest() == LARGE_DOCUMENTS[argv]


@pytest.mark.parametrize("argv", [
    "build-graph --level 3 --format json",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 3 --format csv",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 3 --format json",
    "laplacian-check --level 2 --depth 2",
])
def test_exports_never_decode_addresses(capsys, monkeypatch, argv):
    _, want, _ = run_cli(capsys, *argv.split())

    def refuse(address):
        raise AssertionError("the export built an Address")

    monkeypatch.setattr(fractal_graph.Address, "__post_init__", refuse)
    code, got, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()


def test_every_format_is_pinned():
    parser = _parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wanted = {
        (name, fmt)
        for name, sub in subcommands.choices.items()
        for fmt in next((a.choices for a in sub._actions if a.dest == "format"), [None])
    }
    pinned = set()
    for argv in PINNED_DOCUMENTS:
        args = parser.parse_args(argv.split())
        pinned.add((args.subcommand, getattr(args, "format", None)))
    assert wanted <= pinned, sorted(wanted - pinned, key=str)


def test_unknown_vertex_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "laplacian-check", "--level", "1", "--vertex", "0123:3"
    )
    assert code == 3
    assert "not a vertex" in json.loads(err)["error"]["message"]


def test_laplacian_check_refuses_a_corner(capsys):
    code, out, err = run_cli(capsys, "laplacian-check", "--level", "2", "--vertex", "0:0")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["message"] == (
        "graph Laplacian is defined on interior vertices only, got 0:0"
    )


def test_laplacian_check_canonicalizes_the_vertex(capsys):
    # 1:0 and 0:1 spell the midpoint of P_0 and P_1
    argv = ["laplacian-check", "--level", "2", "--depth", "2", "--vertex"]
    code, spelled, _ = run_cli(capsys, *argv, "1:0")
    assert code == 0
    assert spelled.encode() == run_cli(capsys, *argv, "0:1")[1].encode()
    assert spelled.splitlines()[1].startswith("2,0:1,")


def test_laplacian_check_vertex_rows_are_rows_of_the_interior_document(capsys):
    argv = ["laplacian-check", "--boundary", "0.3,-0.7,0.2,0.9", "--level", "2", "--depth", "3"]
    code, whole, _ = run_cli(capsys, *argv)
    assert code == 0
    for spelled, name in (("13:2", "12:3"), ("0:1", "0:1")):  # 13:2 spells 12:3
        code, one, _ = run_cli(capsys, *argv, "--vertex", spelled)
        assert code == 0
        rows = [r for r in whole.splitlines()[1:] if r.split(",")[1] == name]
        assert len(rows) == 4 and one.splitlines()[1:] == rows


def test_laplacian_check_never_computes_a_whole_column(capsys, monkeypatch):
    def whole_column(u):
        raise AssertionError("interior_laplacian called")

    monkeypatch.setattr(laplacian, "interior_laplacian", whole_column)
    for extra in ((), ("--vertex", "0:1")):
        code, out, err = run_cli(capsys, "laplacian-check", "--level", "1", "--depth", "4", *extra)
        assert code == 0, err
        assert out.startswith("level,address,value\n1,0:1,")


def test_io_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "out.json"
    code, _, err = run_cli(capsys, "constants", "--output", str(bad))
    assert code == 4
    assert json.loads(err)["error"]["code"] == 4


def _readme_commands():
    """The ``tetralap`` lines of the README's "Command line" block, comments stripped."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("tetralap ")]


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_library_sketch_runs():
    block = README.read_text().split("## Library sketch", 1)[1].split("```python", 1)[1]
    namespace = {}
    exec(block.split("```", 1)[0], namespace)
    assert namespace["table"].total_multiplicity == 126
    assert namespace["born6"] == 18


# --- the JSON writer --------------------------------------------------------
# _json_text must equal json.dumps(payload, indent=2) + "\n" for every payload


WRITER_CASES = [
    {}, [], (), [[]], [{}], [(), ()], {"a": {}, "b": []},
    (1, 2.5, "x"), [(1, 2), (3, 4)], [(1, 2), [3, 4]], {"window": (0.5, 2.0)},
    [1], [[1]], [[1], [2]], [[[1, 2]]], {"one": [{"v": 1.0, "w": 2}]},
    [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}], [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
    [{"a": 1}, {"b": 1}], [{"a": 1}, {"a": 1, "b": 2}], [{}, {}],
    [[1, 2], [3, 4]], [[1, 2], [3]], [[1, 2.0], [3, 4.0]], [[1, [2]], [3, [4, 5]]],
    [float("nan"), float("inf"), -float("inf")], [1.0, float("nan")], [-float("inf")],
    [-0.0, 1e16, 5e-324, 1e-7, 0.1, 1.7976931348623157e308], [2 ** 64, -(2 ** 100), 0],
    [True, False, None], [1, True], [0.5, np.float64(0.5)], [np.float64(0.1), np.float64("nan")],
    ["é", "\u2028", "\x00\x01\x1f", "\ud800", "tab\tnew\nline", 'q"uote\\', "😀"],
    {"%s": 1, "100%": [2, 3], 'k"ey': "v%d", "é\n": None, "": 0},
    [{"%": 1.0, "%%s": "%s"}, {"%": 2.0, "%%s": "%(a)d"}],
    "a string", 3, 2.5, None, float("nan"), True,
    # lists of several lengths, the graph_json "word" column among them
    [[], [0], [0, 3], [], [2], (1, 2)], [[], []], [[1.5, "x"], [2], ["%s", None, "\x00"]],
    [[[1], []], [[2, [3]]], []], {"vertices": [{"word": []}, {"word": [0, 1]}, {"word": [3]}]},
    # two bit patterns that == takes for one value
    [0.0, -0.0, 0.0, -0.0],
]


@pytest.mark.parametrize("payload", WRITER_CASES)
def test_json_writer_hand_picked(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2) + "\n"


SPECIAL_SCALARS = [
    0.0, -0.0, 1e16, 5e-324, float("nan"), float("inf"), -float("inf"), 2 ** 70, -1,
    True, False, None, np.float64(0.25), "", "100%", "%s", 'a"b', "é\u2028\x07",
]
KEYS = ["a", "b", "value", "%", "%s", 'k"y', "é", "\n", ""]


def _random_kind(rng, depth):
    """A function giving values of one random kind: floats, ints, strs, special
    scalars or nested payloads."""
    return rng.choice([
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.randint(-(2 ** 64), 2 ** 64),
        lambda: "".join(rng.choice('ab%"\\é\n\x00😀') for _ in range(rng.randint(0, 4))),
        lambda: rng.choice(SPECIAL_SCALARS),
        lambda: _random_payload(rng, depth - 1),
    ])


def _random_payload(rng, depth):
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(SPECIAL_SCALARS + [rng.uniform(-1.0, 1.0), rng.randint(-9, 9)])
    n, shape = rng.randint(0, 4), rng.randrange(5)
    if shape == 0:  # a column of one kind
        kind = _random_kind(rng, depth)
        return [kind() for _ in range(n)]
    if shape == 1:  # items of any kind
        return [_random_payload(rng, depth - 1) for _ in range(n)]
    if shape == 2:
        return {rng.choice(KEYS): _random_payload(rng, depth - 1) for _ in range(n)}
    if shape == 3:  # records: dicts with one key list, each key of one kind
        kinds = {key: _random_kind(rng, depth) for key in rng.sample(KEYS, rng.randint(0, 3))}
        return [{key: kind() for key, kind in kinds.items()} for _ in range(n)]
    # rows: lists or tuples of one width, each position of one kind
    kinds = [_random_kind(rng, depth) for _ in range(rng.randint(0, 3))]
    return [rng.choice((list, tuple))(kind() for kind in kinds) for _ in range(n)]


def test_json_writer_random_payloads():
    rng = random.Random(20240915)
    for _ in range(500):
        payload = _random_payload(rng, 4)
        assert _json_text(payload) == json.dumps(payload, indent=2) + "\n", payload


def test_float_texts_keep_both_zeros(capsys):
    # floats are formatted once per bit pattern, so 0.0 and -0.0, which are
    # ==, keep their own texts (the JSON case is among WRITER_CASES); 1 and
    # 1.0 keep theirs too
    assert "".join(_csv("z", [[0.0, -0.0, 0.0, -0.0]])) == "z\n0.0\n-0.0\n0.0\n-0.0\n"
    assert "".join(_csv("n", [[1, 1.0, 1, 1.0]])) == "n\n1\n1.0\n1\n1.0\n"
    code, out, _ = run_cli(
        capsys, "harmonic", "--boundary=-0.0,0,0,1", "--level", "2", "--format", "csv"
    )
    assert code == 0
    values = [row.split(",")[4] for row in out.splitlines()[1:]]
    want = list(map(repr, harmonize((-0.0, 0.0, 0.0, 1.0), 2).values.tolist()))
    assert values == want and "-0.0" in values and "0.0" in values


def test_json_writer_refuses_non_str_keys():
    with pytest.raises(TypeError):
        _json_text({1: 2})


# --- documents written in blocks ----------------------------------------------


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("level", [*range(1, 9), 12])
def test_spectrum_document_is_spectrum_json(capsys, level):
    # the CLI writes the records from the columns; the spectral round trip
    # reads spectrum_json's dict; the two must not drift apart
    code, out, _ = run_cli(capsys, "spectrum", "--level", str(level))
    assert code == 0
    assert out == _dumps(decimation.spectrum_json(enumerate_spectrum(level)))


def _records(table) -> list:
    return [dict(zip(table.fields, row)) for row in table.rows()]


def test_limit_and_counting_documents_are_their_dicts(capsys):
    limits = decimation.limit_spectrum(8, 500)
    alpha, diag = decimation.weyl_fit(limits)
    fit = {"alpha_hat": alpha, "alpha_expected": decimation.DIMENSION_CONSTANTS.weyl_alpha,
           **dataclasses.asdict(diag)}
    code, out, _ = run_cli(capsys, *"limit-spectrum --births 8 --count 500 --fit".split())
    assert code == 0
    assert out == _dumps({"limit_eigenvalues": _records(limits), "weyl_fit": fit})
    for argv, spectrum in (("counting --level 10", enumerate_spectrum(10)),
                           ("counting --limit --births 8 --count 500", limits)):
        counts = decimation.counting_function(spectrum, spectrum.values)
        code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
        assert code == 0
        assert out == _dumps({"points": [list(p) for p in zip(spectrum.values.tolist(),
                                                              counts.tolist())]})


@pytest.mark.parametrize("level", range(6))
def test_graph_and_harmonic_documents_are_their_dicts(capsys, level):
    g = fractal_graph.build_level(level)
    digits = fractal_graph._word_digits(g.keys, level).tolist()
    rows = zip(digits, (g.keys % 4).tolist(), fractal_graph.vertex_coords(g).tolist())
    vertices = [{"id": i, "word": [d - 1 for d in ds if d], "base": base, "xyz": xyz}
                for i, (ds, base, xyz) in enumerate(rows)]
    code, out, _ = run_cli(capsys, "build-graph", "--level", str(level))
    assert code == 0
    assert out == _dumps({"level": level, "vertices": vertices, "edges": g.edges.tolist()})
    boundary = [-0.0, 0.7, 0.1, -0.9]
    u = harmonize(boundary, level)
    values = dict(zip(fractal_graph.address_strings(g).tolist(), u.values.tolist()))
    code, out, _ = run_cli(capsys, "harmonic", "--boundary=-0.0,0.7,0.1,-0.9",
                           "--level", str(level), "--format", "json")
    assert code == 0
    assert out == _dumps({"level": level, "boundary": boundary, "values": values})


def _after_one_block(error):
    """A _rows that yields its first block, then raises error."""
    rows = cli._rows

    def failing(*args):
        yield next(rows(*args))
        raise error

    return failing


@pytest.mark.parametrize("before", [None, b"an older document\n"], ids=["new", "existing"])
@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), RuntimeError("bug")],
                         ids=["os-error", "unexpected"])
def test_a_failed_write_leaves_nothing_behind(tmp_path, capsys, monkeypatch, before, error):
    target = tmp_path / "s.json"
    if before is not None:
        target.write_bytes(before)
    monkeypatch.setattr(cli, "_rows", _after_one_block(error))
    argv = ["spectrum", "--level", "12", "--output", str(target)]
    if isinstance(error, OSError):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert json.loads(err)["error"]["message"] == "[Errno 28] No space left on device"
    else:
        with pytest.raises(RuntimeError, match="bug"):
            main(argv)
    # no partial document, and no temporary file beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if before is None else ["s.json"])
    if before is not None:
        assert target.read_bytes() == before


def test_output_replaces_the_target_whole(tmp_path, capsys):
    target = tmp_path / "g.obj"
    target.write_text("x" * 10 ** 6)  # longer than the document
    code, _, _ = run_cli(capsys, "build-graph", "--level", "3", "--format", "obj",
                         "--output", str(target))
    assert code == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == PINNED_DOCUMENTS["build-graph --level 3 --format obj"]
    assert [p.name for p in tmp_path.iterdir()] == ["g.obj"]


def test_output_to_a_pipe_writes_through_it(tmp_path, capsys):
    # a pipe or device cannot be replaced by a file, so it is written in place
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        code, _, _ = run_cli(capsys, "constants", "--output", str(pipe))
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert hashlib.sha256(got).hexdigest() == PINNED_DOCUMENTS["constants"]


def test_a_refused_run_creates_no_file(tmp_path, capsys):
    for argv in ("build-graph --level 12", "spectrum --level 16", "laplacian-check --depth -1"):
        code, out, _ = run_cli(capsys, *argv.split(), "--output", str(tmp_path / "doc"))
        assert (code, out) == (3, "")
    assert list(tmp_path.iterdir()) == []


#: tracemalloc peaks of whole runs, in MB, measured at 3.3, 8.4 and 10.5 (Python
#: 3.11, numpy 2.4), against 6.5, 69.0 and 25.1 when each document was built whole
STREAMED_PEAK_MB = {
    "spectrum --level 12 --format json": 4.5,
    "build-graph --level 7 --format json": 12.0,
    "build-graph --level 7 --format obj": 14.0,
}


@pytest.mark.parametrize("argv", sorted(STREAMED_PEAK_MB))
def test_documents_are_streamed(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "doc"
    argv = [*argv.split(), "--output", str(target)]
    write, peaks = cli._write, []

    def measured(blocks, path):
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write(blocks, path)
        peaks.extend([peak, tracemalloc.get_traced_memory()[1] - held])

    assert run_cli(capsys, *argv)[0] == 0  # the first run fills the caches
    monkeypatch.setattr(cli, "_write", measured)
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, *argv)
        peak = max(peaks[0], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < STREAMED_PEAK_MB[" ".join(argv[:-2])] * 1e6
    if argv[0] == "build-graph":
        # the write holds a few blocks, not the document: it adds 0.8 MB for
        # the 2.9 MB OBJ and 3.4 MB for the 11.6 MB JSON
        assert peaks[1] < target.stat().st_size / 2
