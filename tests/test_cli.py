import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import designdim as dd
from designdim.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _construct(capsys, tmp_path, constructor, parameter, name):
    path = tmp_path / name
    code, out, _ = _run(capsys, "construct", constructor, str(parameter), "-o", str(path))
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_pg2(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    assert path.read_text().splitlines()[0] == "SD 7 3 1"


def test_construct_biaffine3(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "biaffine", 3, "ba3.std")
    assert path.read_text().splitlines()[0] == "STD 3 3 1"


def test_construct_reports_validation(capsys, tmp_path):
    path = tmp_path / "hd.sd"
    code, out, _ = _run(capsys, "construct", "hadamard-design", "12", "-o", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["design"] == {"type": "SD", "v": 11, "k": 5, "lambda": 2}


def test_construct_rejects_non_prime_power(capsys, tmp_path):
    code, _, err = _run(capsys, "construct", "pg", "6", "-o", str(tmp_path / "x.sd"))
    assert code == 2
    assert "not a prime power" in err


def test_construct_from_file_revalidates(capsys, tmp_path):
    src = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    dst = tmp_path / "copy.sd"
    code, out, _ = _run(capsys, "construct", "file", str(src), "-o", str(dst))
    assert code == 0
    assert dst.read_text() == src.read_text()


def test_construct_invalid_file_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.sd"
    bad.write_text("SD 3 2 1\n0 1\n0 1\n0 2\n")
    dst = tmp_path / "out.sd"
    code, out, _ = _run(capsys, "construct", "file", str(bad), "-o", str(dst))
    assert code == 1
    assert json.loads(out)["valid"] is False


# ---------------------------------------------------------------------------
# resolve + verify
# ---------------------------------------------------------------------------

def test_resolve_exact_semi_points(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    witness = tmp_path / "fano.rs"
    code, out, _ = _run(
        capsys, "resolve", "--method", "exact", "--target", "semi-points",
        "--out", str(witness), str(design),
    )
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 3
    assert report["verified"] is True
    assert witness.read_text().startswith("RS semi-points\n")
    code, out, _ = _run(capsys, "verify", str(design), str(witness))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_resolve_random_split(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 3, "pg3.sd")
    witness = tmp_path / "pg3.rs"
    code, out, _ = _run(
        capsys, "resolve", "--method", "random", "--target", "split",
        "--seed", "7", "--out", str(witness), str(design),
    )
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["size"] <= 24  # 2 * ceil(13 ln 13 / 3)
    assert report["bound_total"] == 24
    code, _, _ = _run(capsys, "verify", str(design), str(witness))
    assert code == 0


def test_resolve_full_mdim_pappus(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "biaffine", 3, "pappus.std")
    code, out, _ = _run(capsys, "resolve", "--target", "full-mdim", str(design))
    assert code == 0
    report = json.loads(out)
    assert report["mu_lower"] == report["mu_upper"] == 4
    assert report["optimal"] is True


def test_resolve_random_full_mdim_rejected(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    code, _, err = _run(
        capsys, "resolve", "--method", "random", "--target", "full-mdim", str(design)
    )
    assert code == 2
    assert "full-mdim" in err


def test_verify_empty_witness_fails(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    witness = tmp_path / "empty.rs"
    witness.write_text("RS semi-points\n\n")
    code, out, _ = _run(capsys, "verify", str(design), str(witness))
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert "(0, 1)" in report["detail"]


def test_verify_repeated_index_fails(capsys, tmp_path):
    """Four block indices with one twice name three blocks: rejected with
    exit 1, not verified as a set of four."""
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    witness = tmp_path / "repeated.rs"
    witness.write_text("RS semi-points\n0 0 1 2\n")
    code, out, _ = _run(capsys, "verify", str(design), str(witness))
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert report["detail"] == "block index 0 repeated"


def test_verify_truncated_design_exits_two(capsys, tmp_path):
    bad = tmp_path / "trunc.sd"
    bad.write_text("SD 7 3 1\n0 1 2\n")
    witness = tmp_path / "w.rs"
    witness.write_text("RS semi-points\n0\n")
    code, _, err = _run(capsys, "verify", str(bad), str(witness))
    assert code == 2


def test_every_emitted_witness_reverifies(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "biaffine", 3, "ba3.std")
    for method, target in (
        ("exact", "semi-points"),
        ("greedy", "semi-blocks"),
        ("greedy", "split"),
        ("exact", "full-mdim"),
    ):
        witness = tmp_path / f"{method}-{target}.rs"
        code, _, _ = _run(
            capsys, "resolve", "--method", method, "--target", target,
            "--out", str(witness), str(design),
        )
        assert code == 0, (method, target)
        code, _, _ = _run(capsys, "verify", str(design), str(witness))
        assert code == 0, (method, target)


def test_resolve_reports_are_deterministic(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 3, "pg3.sd")
    args = ("resolve", "--method", "random", "--target", "semi-points",
            "--seed", "3", str(design))
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_explicit_parameters(capsys):
    code, out, _ = _run(capsys, "bounds", "--v", "7", "--m", "4", "--s", "3")
    assert code == 0
    report = json.loads(out)
    assert (report["E_num"], report["E_den"]) == (3, 5)


def test_bounds_design_with_formula_size(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    code, out, _ = _run(capsys, "bounds", "--design", str(design), "--bound-s")
    assert code == 0
    report = json.loads(out)
    assert report["s"] == 7
    assert report["E_num"] == 0


@pytest.mark.parametrize(
    "text",
    ["STD 1 1 1\n0\n0\n", "SD 1 1 1\n0\n", "SD 2 2 2\n0 1\n0 1\n", "STD 0 0 0\n"],
    ids=["std111", "sd111", "sd222", "std000"],
)
def test_bounds_formula_size_rejects_degenerate_design(capsys, tmp_path, text):
    # a degenerate design fails validation (exit 1) before any sample size
    design = tmp_path / "degenerate.txt"
    design.write_text(text)
    code, out, err = _run(capsys, "bounds", "--design", str(design), "--bound-s")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("design does not validate: ")
    assert "Traceback" not in err


def test_bounds_sweep_csv(capsys):
    code, out, _ = _run(capsys, "bounds", "--sweep", "pg", "--qmax", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# designdim")  # provenance comment
    lines = lines[1:]
    assert lines[0].startswith("v,k,lambda,g,s,")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 8
    for row in rows:
        v, s = int(row["v"]), int(row["s"])
        m = 2 * (int(row["k"]) - int(row["lambda"]))
        if s <= v - m:
            assert row["chain_ok"] == "true"
        else:
            assert row["chain_ok"] == "skipped"


def test_bounds_usage_error(capsys):
    code, _, err = _run(capsys, "bounds", "--v", "7")
    assert code == 2


def test_bounds_precondition_violation(capsys):
    code, _, err = _run(capsys, "bounds", "--v", "7", "--m", "7", "--s", "3")
    assert code == 2
    assert "0 < m < v" in err


# ---------------------------------------------------------------------------
# export / classify
# ---------------------------------------------------------------------------

def test_export_heawood(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    out_path = tmp_path / "graph.txt"
    code, _, _ = _run(capsys, "export", str(design), "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "G 14 21 7"
    graph = dd.from_edge_text(text)
    assert graph.n == 14 and graph.diameter == 3


def test_classify_fano(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    code, out, _ = _run(capsys, "classify", str(design))
    assert code == 0
    report = json.loads(out)
    assert report["bipartite"] is True
    assert report["antipodal"] is False
    assert report["diameter"] == 3
    assert report["intersection_array"]["b"] == [3, 2, 2]


def test_verify_full_witness_against_graph_file(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    graph_path = tmp_path / "heawood.g"
    code, _, _ = _run(capsys, "export", str(design), "-o", str(graph_path))
    assert code == 0
    graph = dd.from_edge_text(graph_path.read_text())
    landmarks = dd.metric_dimension(graph).landmarks
    witness = tmp_path / "full.rs"
    witness.write_text(dd.witness_to_text("full", landmarks))
    code, out, _ = _run(capsys, "verify", str(graph_path), str(witness))
    assert code == 0
    assert json.loads(out)["verified"] is True
    # other roles need block structure
    semi = tmp_path / "semi.rs"
    semi.write_text(dd.witness_to_text("semi-points", (0, 1)))
    code, _, err = _run(capsys, "verify", str(graph_path), str(semi))
    assert code == 2
    assert "full" in err


def test_tab_separated_graph_header_reads_as_a_graph(capsys, tmp_path):
    """A graph file is recognised by the first token of its header, which
    any whitespace may follow, as in a design file."""
    design = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    graph = dd.incidence_graph(dd.from_text(design.read_text()))
    text = dd.to_edge_text(graph).replace(" ", "\t", 3)
    assert text.startswith("G\t14\t21\t7\n")
    assert dd.from_edge_text(text).adj == graph.adj
    graph_path = tmp_path / "heawood.g"
    graph_path.write_text(text)
    witness = tmp_path / "full.rs"
    witness.write_text(dd.witness_to_text("full", dd.metric_dimension(graph).landmarks))
    code, out, err = _run(capsys, "verify", str(graph_path), str(witness))
    assert (code, err) == (0, "")
    assert json.loads(out)["detail"] == "resolves the graph"


def test_verify_full_witness_on_a_long_path(capsys, tmp_path):
    n = 300
    graph_path = tmp_path / "path.g"
    graph_path.write_text(f"G {n} {n - 1} 0\n" + "".join(f"{u} {u + 1}\n" for u in range(n - 1)))
    witness = tmp_path / "end.rs"
    witness.write_text("RS full\n0\n")
    code, out, err = _run(capsys, "verify", str(graph_path), str(witness))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verified"] is True and report["detail"] == "resolves the graph"


def test_graph_file_verify_matches_the_design_verdict(capsys, tmp_path, small_corpus):
    """A full witness checked against the exported graph file gets the
    design's verdict and detail, up to naming the graph; random witnesses,
    out-of-range indices included."""
    rng = random.Random(11)
    for name, d in small_corpus.items():
        g = dd.incidence_graph(d)
        graph_path = tmp_path / f"{name}.g"
        graph_path.write_text(dd.to_edge_text(g))
        witnesses = [dd.metric_dimension(g, limit=0).landmarks, range(g.n)]
        witnesses += [
            rng.sample(range(-1, g.n + 1), rng.randint(0, min(g.n, 8))) for _ in range(10)
        ]
        for indices in witnesses:
            witness = tmp_path / "w.rs"
            witness.write_text(dd.witness_to_text("full", indices))
            code, out, err = _run(capsys, "verify", str(graph_path), str(witness))
            ok, detail = dd.verify_witness(d, "full", sorted(indices))
            report = json.loads(out)
            assert (code, err) == (0 if ok else 1, ""), (name, indices)
            assert report["verified"] is ok, (name, indices)
            assert report["detail"] == detail.replace("the incidence graph", "the graph")


def test_classify_hadamard_std(capsys, tmp_path):
    design = _construct(capsys, tmp_path, "hadamard-std", 4, "h4.std")
    code, out, _ = _run(capsys, "classify", str(design))
    assert code == 0
    report = json.loads(out)
    assert report["antipodal"] is True and report["diameter"] == 4


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# exit codes: 2 = unparsable input, 1 = parsed input fails validation or the
# computation fails
# ---------------------------------------------------------------------------

FANO_OUT_OF_RANGE = "SD 7 3 1\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 9\n"
FANO_TRUNCATED = "SD 7 3 1\n0 1 2\n0 3 4\n"
DESIGN_COMMANDS = {
    "construct": lambda f, tmp: ["construct", "file", f, "-o", str(tmp / "copy.sd")],
    "resolve": lambda f, tmp: ["resolve", f],
    "bounds": lambda f, tmp: ["bounds", "--design", f, "--s", "1"],
    "verify": lambda f, tmp: ["verify", f, str(tmp / "w.rs")],
    "export": lambda f, tmp: ["export", f],
    "classify": lambda f, tmp: ["classify", f],
}


@pytest.mark.parametrize(
    "text, want",
    [(FANO_OUT_OF_RANGE, 1), (FANO_TRUNCATED, 2)],
    ids=["out-of-range", "truncated"],
)
@pytest.mark.parametrize("command", sorted(DESIGN_COMMANDS))
def test_design_file_exit_codes(capsys, tmp_path, command, text, want):
    design = tmp_path / "bad.sd"
    design.write_text(text)
    (tmp_path / "w.rs").write_text("RS semi-points\n0\n")
    code, _, err = _run(capsys, *DESIGN_COMMANDS[command](str(design), tmp_path))
    assert code == want
    assert err.count("\n") == 1 and err.strip()
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, want, err", [
    (["resolve", "FANO", "--method", "random", "--s", "99"], 2, "sample size 99 outside 1..7"),
    (["resolve", "FANO", "--method", "random", "--target", "split", "--s", "99"], 2,
     "sample size 99 outside 1..7"),
    (["resolve", "FANO", "--method", "random", "--retries", "0"], 2,
     "max_retries = 0 must be positive"),
    (["resolve", "FANO", "--method", "exact", "--limit", "5"], 2,
     "7 points exceeds the exact-solver limit 5"),
    (["bounds", "--sweep", "pg", "--mc-trials", "-1"], 2, "trials = -1 must be positive"),
    (["bounds", "--design", "FANO", "--s", "100"], 2, "s = 100 outside 0..7"),
    (["bounds", "--design", "FANO"], 2, "give --s or --bound-s with --design"),
    (["bounds", "--sweep", "pg", "--qmax", "1"], 2, "qmax = 1 must be at least 2"),
    (["bounds", "--design", "FANO", "--bound-s", "--mc-trials", "50"], 2,
     "--mc-trials applies only to --sweep"),
    (["bounds", "--v", "7", "--m", "4", "--s", "3", "--mc-trials", "50"], 2,
     "--mc-trials applies only to --sweep"),
    (["bounds", "--sweep", "pg", "--qmax", "3", "--v", "7", "--s", "99", "--design", "FANO"], 2,
     "--design, --v, --m, --s and --bound-s do not apply to --sweep"),
    (["bounds", "--sweep", "pg", "--qmax", "3", "--m", "4"], 2,
     "--design, --v, --m, --s and --bound-s do not apply to --sweep"),
    (["bounds", "--sweep", "pg", "--qmax", "3", "--bound-s"], 2,
     "--design, --v, --m, --s and --bound-s do not apply to --sweep"),
    (["resolve", "FANO", "--method", "exact", "--budget", "0"], 2,
     "node budget 0 must be positive"),
    (["resolve", "FANO", "--method", "exact", "--target", "split", "--budget", "0"], 2,
     "node budget 0 must be positive"),
    (["resolve", "FANO", "--method", "exact", "--target", "full-mdim", "--budget", "0"], 2,
     "node budget 0 must be positive"),
    (["resolve", "FANO", "--method", "random", "--s", "1", "--retries", "3"], 1,
     "no semi-resolving sample in 3 trials (best trial left 9 pairs unresolved)"),
    (["resolve", "FANO", "--method", "exact", "--budget", "1"], 1, "node budget 1 exceeded"),
], ids=["s", "split-s", "retries", "limit", "mc-trials", "bounds-s", "bounds-no-s", "qmax",
        "design-mc-trials", "chain-mc-trials", "sweep-chain-args", "sweep-m", "sweep-bound-s",
        "budget-0", "split-budget-0", "full-budget-0", "exhausted", "budget"])
def test_option_exit_codes(capsys, tmp_path, argv, want, err):
    """Options the valid input does not support exit 2; a solver that gives
    up exits 1."""
    fano = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    argv = [str(fano) if a == "FANO" else a for a in argv]
    assert _run(capsys, *argv) == (want, "", err + "\n")


INVALID = "design does not validate: class size g = 1 must be at least 2"


@pytest.mark.parametrize("argv, want, err", [
    (["classify", "STD1"], 1, INVALID),
    (["export", "STD1"], 1, INVALID),
    (["resolve", "STD1"], 1, INVALID),
    (["verify", "STD1", "SEMI"], 1, INVALID),
    (["bounds", "--design", "STD1", "--s", "1"], 1, INVALID),
    (["classify", "NONE"], 2, "cannot read NONE: [Errno 2] No such file or directory: 'NONE'"),
    (["classify", "ASCII"], 2,
     "'ascii' codec can't decode byte 0xc3 in position 9: ordinal not in range(128)"),
    (["construct", "pg", "6", "-o", "OUT"], 2, "6 is not a prime power"),
    (["construct", "pg", "x", "-o", "OUT"], 2, "bad pg parameter line: 'x'"),
    (["classify", "GRAPH"], 2, "GRAPH is a graph file, which only verify reads"),
    (["verify", "GRAPH", "SEMI"], 2, "graph files support only role 'full', not 'semi-points'"),
], ids=[
    "classify-invalid", "export-invalid", "resolve-invalid", "verify-invalid", "bounds-invalid",
    "missing", "non-ascii", "constructor", "constructor-int", "graph-design", "graph-semi",
])
def test_error_paths_exit_with_one_line(capsys, tmp_path, argv, want, err):
    """An input that parses but fails validation exits 1; one that cannot
    be read or parsed, or is the wrong kind of file, exits 2.  Either way
    stdout is empty and stderr holds one line."""
    fano = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    files = {name: tmp_path / name for name in ("STD1", "SEMI", "NONE", "ASCII", "OUT", "GRAPH")}
    files["STD1"].write_text("STD 1 1 1\n0\n0\n")
    files["SEMI"].write_text("RS semi-points\n0 1 2\n")
    files["ASCII"].write_bytes(b"SD 7 3 1\n\xc3\xa9\n")
    assert _run(capsys, "export", str(fano), "-o", str(files["GRAPH"]))[0] == 0
    argv = [str(files.get(a, a)) for a in argv]
    for name, path in files.items():
        err = err.replace(name, str(path))
    assert _run(capsys, *argv) == (want, "", err + "\n")
    assert not files["OUT"].exists()


@pytest.mark.parametrize("command", ["classify", "export", "resolve", "bounds"])
def test_graph_file_given_to_a_design_command_exits_two(capsys, tmp_path, command):
    fano = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    graph = tmp_path / "heawood.g"
    assert _run(capsys, "export", str(fano), "-o", str(graph))[0] == 0
    code, out, err = _run(capsys, *DESIGN_COMMANDS[command](str(graph), tmp_path))
    assert code == 2
    assert out == "" and err == f"{graph} is a graph file, which only verify reads\n"


@pytest.mark.parametrize("missing", ["design", "witness"])
def test_verify_names_the_file_it_cannot_read(capsys, tmp_path, missing):
    fano = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    witness = tmp_path / "w.rs"
    witness.write_text("RS semi-points\n0 1 2\n")
    paths = {"design": str(fano), "witness": str(witness), missing: str(tmp_path / "none")}
    code, out, err = _run(capsys, "verify", paths["design"], paths["witness"])
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"cannot read {tmp_path / 'none'}: [Errno 2] No such file")


@pytest.mark.parametrize("argv", [
    ["construct", "pg", "2", "-o"], ["export", "FANO", "-o"], ["resolve", "FANO", "--out"],
], ids=["construct", "export", "resolve"])
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    fano = _construct(capsys, tmp_path, "pg", 2, "fano.sd")
    argv = [str(fano) if a == "FANO" else a for a in argv]
    code, _, err = _run(capsys, *argv, str(tmp_path / "missing" / "out.txt"))
    assert code == 2
    assert err.count("\n") == 1 and "No such file or directory" in err


@pytest.mark.parametrize("command", ["export", "classify", "verify", "resolve"])
def test_disconnected_graph_exits_one(capsys, tmp_path, command):
    # lambda = 0 leaves three disjoint edges: the gate rejects it before any
    # graph is built, since every valid design has a connected graph
    design = tmp_path / "matching.sd"
    design.write_text("SD 3 1 0\n0\n1\n2\n")
    (tmp_path / "w.rs").write_text("RS semi-points\n0\n")
    code, out, err = _run(capsys, *DESIGN_COMMANDS[command](str(design), tmp_path))
    assert code == 1
    assert out == "" and err == "design does not validate: lambda = 0 must be at least 1\n"


@pytest.mark.parametrize("text", ["SD 1 1 1\n0\n", "STD 1 1 1\n0\n0\n"], ids=["sd", "std"])
def test_split_on_one_point_design_exits_one(capsys, tmp_path, text):
    design = tmp_path / "one.txt"
    design.write_text(text)
    code, out, err = _run(capsys, "resolve", str(design), "--target", "split",
                          "--method", "greedy")
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert err.startswith("design does not validate: ") and "must be at least 2" in err


def test_random_resolve_validates_first(capsys, tmp_path):
    # the header alone claims 20000 points: rejected before any sampling
    design = tmp_path / "wide.std"
    design.write_text("STD 20000 1 0\n0\n")
    code, out, err = _run(capsys, "resolve", str(design), "--method", "random")
    assert code == 1
    assert out == "" and err.startswith("design does not validate: k = 1")


def _exit_and_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def design_texts(draw):
    """Small SD/STD files: parameters 0..4, body lengths around the header's
    line count, index lines with negative and out-of-range values."""
    kind = draw(st.sampled_from(["SD", "STD"]))
    a, b, c = (draw(st.integers(0, 4)) for _ in range(3))
    lines, v = (a, a) if kind == "SD" else (b + c * a * a, a * b)
    lines = max(0, lines + draw(st.sampled_from([0, 0, 0, -1, 1, 3])))
    index = st.integers(-2, v + 2)
    body = [draw(st.lists(index, min_size=1, max_size=5)) for _ in range(lines)]
    return "\n".join([f"{kind} {a} {b} {c}"] + [" ".join(map(str, r)) for r in body]) + "\n"


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(text=design_texts(), role=st.sampled_from(["semi-points", "semi-blocks", "split", "full"]),
       indices=st.lists(st.integers(-1, 9), max_size=4))
@example(text="SD 1 1 1\n0\n", role="split", indices=[0, 1])
@example(text="SD 2 1 0\n0\n5\n", role="semi-points", indices=[0])
def test_cli_never_shows_a_traceback(scratch_dir, text, role, indices):
    """Every command on arbitrary small design files exits 0, 1 or 2 with
    no exception escaping cli.main."""
    design, witness = scratch_dir / "d.txt", scratch_dir / "w.rs"
    design.write_text(text)
    witness.write_text(f"RS {role}\n" + " ".join(map(str, indices)) + "\n")
    f = str(design)
    commands = [
        ["classify", f], ["export", f], ["verify", f, str(witness)],
        ["bounds", "--design", f, "--s", "1"], ["bounds", "--design", f, "--bound-s"],
    ]
    for method in ("random", "greedy", "exact"):
        for target in ("semi-points", "semi-blocks", "split"):
            commands.append(["resolve", f, "--method", method, "--target", target])
    for argv in commands:
        code, err = _exit_and_stderr(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------

def test_runtime_imports_only_the_standard_library():
    """Importing the package and its command line loads no module outside
    the standard library and designdim (checked in a fresh interpreter
    without site packages, against the modules loaded before the import)."""
    src = Path(dd.__file__).resolve().parent.parent
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import designdim, designdim.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "designdim.cli" in loaded
    foreign = [name for name in loaded
               if name.partition(".")[0] not in sys.stdlib_module_names | {"designdim"}]
    assert foreign == []
