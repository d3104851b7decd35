"""Command-line interface: formats, determinism, round trips, exit codes."""

import hashlib
import json

import pytest

from tetralap import spectrum_from_json, enumerate_spectrum
from tetralap.cli import main


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


def test_counting_csv_level(capsys):
    code, out, _ = run_cli(capsys, "counting", "--level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,N"
    assert lines[-1].endswith(",30")


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


def test_bad_flags_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harmonic", "--boundary", "1,2,3", "--level", "1"])
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
    "harmonic --boundary=-0.3,0.7,0.1,-0.9 --level 6 --format csv":
        "e15be08e9086ff8d553c49f73df74aef075d68d7de172a597a11244d5777b2ac",
    "harmonic --boundary=0.25,-1.5,0.1,0.9 --level 5 --format json":
        "fffdb9454984c510389d3df5034781bbc07a8b044ce20b47120b112fb321209d",
    "spectrum --level 8 --format csv":
        "c9e34e251591657865171eb3c7d15c775c9fd5f456bdb3348ae704d3624c6144",
    "limit-spectrum --births 6 --count 120 --format csv":
        "78e78f755049112d55c25a5dcbbf55a51db62d4bafb03a105ef4d96d8585e15d",
    "counting --level 10 --format json":
        "dadc91ae51549fdc4fe14599aa164bce8672d8511c0fea54bd465718968de56a",
    "counting --limit --births 6 --count 100 --format json":
        "ef8489a84df1e74fd569c6294a918477578ebfd75537746e29aa57ce8a48f7b0",
    "laplacian-check --boundary 1,0,0,0 --level 1 --depth 3":
        "85b2145ff1ab984648ada6f298d2e01d48c6a9d014b9d5c084045e824626dbd3",
    "laplacian-check --boundary=0.3,-0.7,0.2,0.9 --level 2 --depth 3":
        "55dd53bdf7af812a6291ef5e32d00bba2f6304a77afaa63709ded30ccc0ff0e2",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DOCUMENTS))
def test_pinned_document_digests(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DOCUMENTS[argv]


def test_unknown_vertex_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "laplacian-check", "--level", "1", "--vertex", "0123:3"
    )
    assert code == 3
    assert "not a vertex" in json.loads(err)["error"]["message"]


def test_io_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "out.json"
    code, _, err = run_cli(capsys, "constants", "--output", str(bad))
    assert code == 4
    assert json.loads(err)["error"]["code"] == 4
