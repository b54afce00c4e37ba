"""Scheme file format and the command-line surface (exit codes, reports)."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amorphic as am
import amorphic.cli as cli
from amorphic.cli import run_command
from conftest import net_with_group_sizes


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.scheme"
    am.save_scheme(am.gen_hamming_binary(3), path, comment="cube")
    return path


# ------------------------------------------------------------- file format

def test_save_load_round_trip_byte_stable(tmp_path):
    scheme = am.gen_net_scheme(3, am.SlopeGrouping.singletons(3))
    p1 = tmp_path / "a.scheme"
    p2 = tmp_path / "b.scheme"
    am.save_scheme(scheme, p1)
    am.save_scheme(am.load_scheme(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert am.load_scheme(p2) == scheme


def saved_by_row_joins(scheme, comment):
    """Test-only reference for a scheme file: the comment lines, the header
    and one Python join of each row's labels."""
    lines = [f"# {line}" for line in comment.splitlines()]
    lines.append(f"{scheme.v} {scheme.d}")
    lines += [" ".join(str(int(x)) for x in row) for row in scheme.labels]
    return ("\n".join(lines) + "\n").encode()


def test_saved_bytes_match_row_joins(corpus, tmp_path):
    """save_scheme writes the row-join format byte for byte on the corpus
    and H(8,2)."""
    for name, scheme in corpus + [("H(8,2)", am.gen_hamming_binary(8))]:
        path = tmp_path / f"{name}.scheme"
        am.save_scheme(scheme, path, comment=name)
        assert path.read_bytes() == saved_by_row_joins(scheme, name), name


def test_multi_line_comment_round_trips(tmp_path):
    """Every line of a comment is written as its own comment line."""
    scheme = am.gen_hamming_binary(3)
    path = tmp_path / "h3.scheme"
    am.save_scheme(scheme, path, comment="a\nb\r\n\nc\rd")
    assert path.read_text().startswith("# a\n# b\n# \n# c\n# d\n8 3\n")
    assert am.load_scheme(path) == scheme


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "k2.scheme"
    path.write_text("# complete on two points\n\n2 1\n0 1\n\n1 0\n")
    scheme = am.load_scheme(path)
    assert scheme.v == 2 and scheme.d == 1


def test_mixed_line_ends_load_as_line_feeds(tmp_path):
    """Lines ended by a mix of LF, CR LF and lone CR load as the LF file
    does, blank lines included, and a bad token on the line after a lone CR
    is named at the line bytes.splitlines() gives it."""
    scheme = am.gen_hamming_binary(3)
    plain = tmp_path / "plain.scheme"
    am.save_scheme(scheme, plain, comment="cube")
    lines = plain.read_bytes().splitlines()
    lines.insert(1, b"")  # a blank line, ended by CR LF

    def write(lines):
        path = tmp_path / "mixed.scheme"
        path.write_bytes(b"".join(line + end for line, end in
                                  zip(lines, itertools.cycle([b"\n", b"\r\n", b"\r"]))))
        return path

    assert am.load_scheme(write(lines)) == am.load_scheme(plain) == scheme
    assert write(lines).read_bytes().splitlines() == lines
    # line 7 (index 6) follows the lone CR that ends line 6
    lines[6] = b" ".join(lines[6].split()[:2] + [b"x"] + lines[6].split()[3:])
    with pytest.raises(am.ParseError, match="^bad integer 'x'") as err:
        am.load_scheme(write(lines))
    assert (err.value.line, err.value.column) == (7, 5)


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.scheme"
    path.write_text("2 1\n0 x\n1 0\n")
    with pytest.raises(am.ParseError) as err:
        am.load_scheme(path)
    assert err.value.line == 2 and err.value.column == 3


def test_parse_error_column_of_token_repeated_inside_an_earlier_one(tmp_path):
    # '-' also occurs inside '-1', at column 1; the bad token starts at 4
    path = tmp_path / "bad.scheme"
    path.write_text("2 1\n-1 -\n1 0\n")
    with pytest.raises(am.ParseError) as err:
        am.load_scheme(path)
    assert err.value.line == 2 and err.value.column == 4


def test_parse_error_wrong_row_count(tmp_path):
    path = tmp_path / "short.scheme"
    path.write_text("3 1\n0 1 1\n1 0 1\n")
    with pytest.raises(am.ParseError):
        am.load_scheme(path)


def test_load_rejects_invalid_scheme(tmp_path):
    path = tmp_path / "nonsym.scheme"
    path.write_text("3 2\n0 1 1\n2 0 2\n1 2 0\n")
    with pytest.raises(am.AxiomViolation):
        am.load_scheme(path)


# ---------------------------------------------------------------- commands

def test_validate_ok(h3_file, capsys):
    assert run_command(["validate", str(h3_file)]) == 0
    assert "v=8, d=3" in capsys.readouterr().out


def test_validate_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.scheme"
    path.write_text("2 1\n0 1\n")
    assert run_command(["validate", str(path)]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run_command(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-1e-9"])
def test_bad_tolerance_is_a_usage_error(h3_file, tol, capsys):
    for argv in (["--tol", tol, "validate", str(h3_file)],
                 [f"--tol={tol}", "validate", str(h3_file)]):
        with pytest.raises(SystemExit) as err:
            run_command(argv)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_python_m_amorphic_help():
    src = str(Path(am.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "amorphic", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: amorphic")


def test_spectrum_report(h3_file, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert run_command(["--report", str(rep), "spectrum", str(h3_file)]) == 0
    data = json.loads(rep.read_text())
    assert data["P"][0] == ["1", "3", "3", "1"]
    assert data["multiplicities"] == [1, 1, 3, 3]
    # deterministic serialization
    run_command(["--report", str(tmp_path / "rep2.json"), "spectrum", str(h3_file)])
    assert rep.read_text() == (tmp_path / "rep2.json").read_text()


def test_seed_flag_is_removed(h3_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_command(["--seed", "7", "spectrum", str(h3_file)])
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err
    for command in ("spectrum", "verify"):
        rep = tmp_path / f"{command}.json"
        assert run_command(["--report", str(rep), command, str(h3_file)]) == 0
        assert json.loads(rep.read_text())["seed"] == 0


def test_thin_eigenvalue_gap_is_an_operational_error(tmp_path, capsys):
    path = tmp_path / "k3.scheme"
    am.save_scheme(am.gen_complete(3), path)
    assert run_command(["--tol", "0.5", "spectrum", str(path)]) == 1
    err = capsys.readouterr().err
    assert "are 3.0 apart" in err
    assert "required gap 50.0 (100*atol)" in err


def test_fuse_success_and_failure(h3_file, capsys):
    assert run_command(["fuse", str(h3_file), "--partition", "1,3|2"]) == 0
    assert "rho = 0|1|2,3" in capsys.readouterr().out
    assert run_command(["fuse", str(h3_file), "--partition", "2,3|1"]) == 1


def test_tuples_and_hypergraph(h3_file, tmp_path, capsys):
    assert run_command(["tuples", str(h3_file), "--k", "2"]) == 0
    assert "2 fusing 2-tuples" in capsys.readouterr().out
    dot = tmp_path / "g.dot"
    assert run_command(["hypergraph", str(h3_file), "--k", "2",
                        "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "is_path=True" in out
    assert "1 -- 2" in dot.read_text()


def test_hypergraph_dot_is_for_graphs(h3_file, tmp_path, capsys):
    """--dot with k = 3 exits 1 before any output, saying DOT export is for
    k = 2, and writes neither the DOT file nor the report."""
    dot, report = tmp_path / "h.dot", tmp_path / "r.json"
    assert run_command(["--report", str(report), "hypergraph", str(h3_file), "--k", "3",
                        "--dot", str(dot)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --dot: DOT export is for k = 2 (graphs), got k = 3\n"
    assert not dot.exists() and not report.exists()


def test_idempotent_hypergraph_above_old_limit(tmp_path, capsys):
    path = tmp_path / "net64.scheme"
    am.save_scheme(net_with_group_sizes(8, [1] * 9), path)  # d = 9
    assert run_command(["hypergraph", str(path), "--k", "3", "--side", "idempotents"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "84 edges"


def test_sunflowers_and_amorphic(tmp_path, capsys):
    path = tmp_path / "net16.scheme"
    am.save_scheme(am.gen_net_scheme(4, am.SlopeGrouping.singletons(4)), path)
    assert run_command(["sunflowers", str(path)]) == 0
    assert "10 sunflower cores" in capsys.readouterr().out
    assert run_command(["amorphic", str(path)]) == 0
    assert "amorphic=True" in capsys.readouterr().out
    assert run_command(["amorphic", str(path), "--oracle"]) == 0


def test_exhaustive_oracle_at_d17(tmp_path, capsys):
    path = tmp_path / "net256.scheme"
    am.save_scheme(net_with_group_sizes(16, [1] * 17), path)  # d = 17
    assert run_command(["amorphic", str(path), "--oracle"]) == 0
    assert capsys.readouterr().out == "amorphic=True (exhaustive oracle)\n"


def test_validate_label_out_of_range_names_plain_cell(tmp_path, capsys):
    path = tmp_path / "k2.scheme"
    path.write_text("2 1\n0 5\n5 0\n")
    assert run_command(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: label out of range [0, 1] at (0, 1) (line 2)\n"


def test_malformed_files_are_parse_errors(tmp_path):
    """A label out of range, a header without classes, a file that is not
    text, a header with one or three values, a file of comments only and a
    short row each raise ParseError naming the line."""
    cases = [("# labels\n2 1\n0 1\n1 5\n", 4, "label out of range"),
             ("2 0\n0 1\n1 0\n", 1, "header needs"),
             (b"2 1\n0 1\n\xff\xfe\n", 3, "not UTF-8 text"),
             ("2\n0 1\n1 0\n", 1, "header must be 'v d'"),
             ("# h\n2 1 1\n0 1\n1 0\n", 2, "header must be 'v d'"),
             ("# only\n# comments\n\n", 1, "empty scheme file"),
             ("2 1\n0 1\n1\n", 3, "expected 2 labels, found 1")]
    for text, line, message in cases:
        path = tmp_path / "bad.scheme"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        with pytest.raises(am.ParseError, match=message) as err:
            am.load_scheme(path)
        assert err.value.line == line, text


@pytest.mark.parametrize("text, line, column, message", [
    ("2 1\n0\n1 x\n", 3, 3, "bad integer 'x'"),       # before the short row on line 2
    ("3 1\n0 1 1\n1 0 q\n", 3, 5, "bad integer 'q'"),  # before the missing row
    (b"2 1\n0 y\n\xff\n", 2, 3, "bad integer 'y'"),    # before a later non-UTF-8 line
    (b"2 1\n\xff\n0 y\n", 2, None, "not UTF-8 text"),  # after an earlier one
    ("2 z\n0 w\n1 0\n", 1, 3, "bad integer 'z'"),      # the header first
])
def test_parse_errors_keep_line_order(tmp_path, text, line, column, message):
    """The rows are converted at once, yet a file gets the error its first
    bad line gives: a bad token comes before a short or missing row
    anywhere and before a later line that is not UTF-8."""
    path = tmp_path / "bad.scheme"
    (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    with pytest.raises(am.ParseError, match=message) as err:
        am.load_scheme(path)
    assert (err.value.line, err.value.column) == (line, column)


def test_label_beyond_int64_is_a_parse_error(tmp_path, capsys):
    """A label too large for int64 is out of range, named by its line, and
    the corpus run records the file and goes on; it used to abort the run
    with OverflowError."""
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a.scheme").write_text("2 1\n0 1\n99999999999999999999 0\n")
    with pytest.raises(am.ParseError, match=r"^label out of range \[0, 1\] \(line 3\)$"):
        am.load_scheme(d / "a.scheme")
    am.save_scheme(am.gen_hamming_binary(3), d / "b.scheme")
    capsys.readouterr()
    assert run_command(["corpus", str(d)]) == 1
    assert capsys.readouterr().out == "b.scheme: ok\n"


def test_load_scheme_hands_the_label_dtype_over(tmp_path, monkeypatch):
    """The rows are parsed straight into the label dtype, uint8 for d = 3,
    read-only, and LabelMatrix keeps that array without a copy."""
    path = tmp_path / "h3.scheme"
    am.save_scheme(am.gen_hamming_binary(3), path)
    given = []
    real = cli.LabelMatrix

    def spy(v, d, labels):
        given.append(labels)
        return real(v=v, d=d, labels=labels)

    monkeypatch.setattr(cli, "LabelMatrix", spy)
    scheme = am.load_scheme(path)
    (labels,) = given
    assert labels.dtype == np.uint8 and not labels.flags.writeable
    assert np.shares_memory(scheme.labels, labels)
    assert scheme == am.gen_hamming_binary(3)


@pytest.fixture(scope="module")
def h10_file(tmp_path_factory):
    """H(10,2) as a file: 1024 rows of 1024 labels, sixteen parse blocks."""
    path = tmp_path_factory.mktemp("h10") / "h10.scheme"
    am.save_scheme(am.gen_hamming_binary(10), path)
    return path


def test_parse_holds_one_block_of_tokens(h10_file, monkeypatch):
    """Parsing H(10,2), validation aside, peaks under 3 MiB: the uint8
    labels, one block of tokens and one line of the file at a time (holding
    every token as a string peaked at 19.9 MiB, and the file's bytes and
    their lines at 4.3 MiB), and every block lands in its place."""
    import tracemalloc
    monkeypatch.setattr(cli, "validate_scheme", lambda labels: labels)
    tracemalloc.start()
    try:
        labels = am.load_scheme(h10_file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak / 2 ** 20
    assert labels.labels.dtype == np.uint8
    assert np.array_equal(labels.labels, am.gen_hamming_binary(10).labels)


def _edit(line, column, token):
    """``line`` with the token at 0-based ``column`` (of tokens) replaced."""
    tokens = line.split(" ")
    tokens[column] = token
    return " ".join(tokens)


@pytest.mark.parametrize("edits, line, column, message", [
    ({1024: (1023, "x")}, 1025, 2048, r"^bad integer 'x'"),
    ({1: (0, "99999999999999999999"), 1024: (5, "x")}, 1025, 12, r"^bad integer 'x'"),
    ({1: (0, "99999999999999999999"), 1024: (5, "")}, 2, None, r"^label out of range \[0, 10\] \(line 2\)$"),
    ({500: (3, "11"), 1024: (5, "300")}, 501, None, r"^label out of range \[0, 10\] at \(499, 3\)"),
    ({500: (3, "300"), 1024: (5, "11")}, 501, None, r"^label out of range \[0, 10\] at \(499, 3\)"),
    ({1000: (3, "11"), 1024: (5, "-1")}, 1001, None, r"^label out of range \[0, 10\] at \(999, 3\)"),
], ids=["bad-last-row", "bad-token-after-int64", "int64-before-short-row",
        "stored-before-unstorable", "unstorable-before-stored", "stored-in-a-failed-block"])
def test_parse_errors_across_blocks(h10_file, tmp_path, edits, line, column, message):
    """In a file of many parse blocks the first bad token still comes first,
    then a label beyond int64, then the row shape, and then the first label
    out of range in row-major order, whether its block converted or failed;
    a malformed last row names its line."""
    lines = h10_file.read_text().splitlines()
    for row, (at, token) in edits.items():
        lines[row] = _edit(lines[row], at, token)
    path = tmp_path / "bad.scheme"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(am.ParseError, match=message) as err:
        am.load_scheme(path)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("argv, message", [
    (["complete", "-v", "6562"], "v = 6562 is above the generators' limit of 6561 points"),
    (["hamming", "-m", "13"], "m must be in 1..12, got 13"),
])
def test_generate_above_the_point_limit_is_an_error(tmp_path, capsys, argv, message):
    """A scheme above the generators' point bound is refused with an error
    line and exit status 1, and no file is written."""
    out = tmp_path / "big.scheme"
    assert run_command(["generate", *argv, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_command(h3_file, capsys):
    assert run_command(["verify", str(h3_file)]) == 0


def _falsified(scheme, tol):
    """A claim report whose only claim applies and fails."""
    return am.ClaimReport(records=(am.ClaimRecord("contraction", True, False, "forced"),))


def test_verify_falsified_writes_report(h3_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_paper_claims", _falsified)
    rep = tmp_path / "rep.json"
    assert run_command(["--report", str(rep), "verify", str(h3_file)]) == 3
    assert capsys.readouterr().err == f"FALSIFICATION: claims falsified on {h3_file}\n"
    assert json.loads(rep.read_text())["claims"] == {
        "contraction": {"applicable": True, "verified": False, "witness": "forced"}}


def test_corpus_falsified_exits_3(tmp_path, monkeypatch, capsys):
    """A falsified report and a raised Falsification are both recorded, the
    run goes on, and the exit status is 3."""
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("a", "b", "c"):
        am.save_scheme(am.gen_hamming_binary(3), d / f"{name}.scheme")
    real = cli.verify_paper_claims
    answers = iter([_falsified, am.Falsification("forced falsification"), real])

    def verify(scheme, tol):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer(scheme, tol=tol)

    monkeypatch.setattr(cli, "verify_paper_claims", verify)
    rep = tmp_path / "rep.json"
    capsys.readouterr()
    assert run_command(["--report", str(rep), "corpus", str(d)]) == 3
    out, err = capsys.readouterr()
    assert out == "a.scheme: FALSIFIED\nc.scheme: ok\n"
    assert err == "b.scheme: FALSIFICATION: forced falsification\n"
    files = json.loads(rep.read_text())["files"]
    assert files["a.scheme"]["contraction"]["verified"] is False
    assert files["b.scheme"] == {"error": "forced falsification", "falsified": True}
    assert "contraction" in files["c.scheme"]


def test_generate_commands(tmp_path, capsys):
    out = tmp_path / "g.scheme"
    assert run_command(["generate", "net", "-n", "3",
                        "--groups", "0,1|2|3", "-o", str(out)]) == 0
    assert am.load_scheme(out).v == 9
    assert run_command(["generate", "cyclotomic", "-q", "13", "-d", "3",
                        "-o", str(out)]) == 0
    assert am.load_scheme(out).d == 3
    assert run_command(["generate", "hamming", "-m", "4", "-o", str(out)]) == 0
    assert run_command(["generate", "complete", "-v", "6", "-o", str(out)]) == 0
    # symmetry failure surfaces as an operational error
    assert run_command(["generate", "cyclotomic", "-q", "11", "-d", "2",
                        "-o", str(out)]) == 1


def test_corpus_command(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("hamming_m3", "complete_v5"):
        scheme = dict(am.standard_corpus())[name]
        am.save_scheme(scheme, d / f"{name}.scheme")
    rep = tmp_path / "rep.json"
    assert run_command(["--report", str(rep), "corpus", str(d)]) == 0
    data = json.loads(rep.read_text())
    assert set(data["files"]) == {"hamming_m3.scheme", "complete_v5.scheme"}
    assert run_command(["corpus", str(tmp_path / "empty")]) == 1


def test_corpus_run_continues_past_bad_files(tmp_path, capsys):
    """A bad file is recorded as an error and the run goes on: the valid
    files before and after it are checked, and the report is written."""
    d = tmp_path / "corpus"
    d.mkdir()
    h3 = am.gen_hamming_binary(3)
    am.save_scheme(h3, d / "a.scheme")
    (d / "b.scheme").write_text("2 1\n0 5\n5 0\n")
    (d / "c.scheme").write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
    (d / "d.scheme").mkdir()
    am.save_scheme(h3, d / "e.scheme")
    rep = tmp_path / "rep.json"
    capsys.readouterr()
    assert run_command(["--report", str(rep), "corpus", str(d)]) == 1
    assert capsys.readouterr().out == "a.scheme: ok\ne.scheme: ok\n"
    files = json.loads(rep.read_text())["files"]
    assert sorted(files) == ["a.scheme", "b.scheme", "c.scheme", "d.scheme", "e.scheme"]
    assert files["a.scheme"] == files["e.scheme"] and "contraction" in files["a.scheme"]
    assert files["b.scheme"] == {"error": "label out of range [0, 1] at (0, 1) (line 2)"}
    assert files["c.scheme"]["error"].startswith("not UTF-8 text")
    assert set(files["d.scheme"]) == {"error"}


def test_corpus_records_a_header_with_more_classes_than_points(tmp_path, capsys):
    """A header "2 1000000000000" is recorded as an error, the run goes on
    and exits 1; it used to abort with numpy's memory error."""
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a.scheme").write_text("2 1000000000000\n0 1\n1 0\n")
    am.save_scheme(am.gen_hamming_binary(3), d / "b.scheme")
    rep = tmp_path / "rep.json"
    capsys.readouterr()
    assert run_command(["--report", str(rep), "corpus", str(d)]) == 1
    out = capsys.readouterr()
    assert out.out == "b.scheme: ok\n"
    assert out.err == "a.scheme: error: label 2 never occurs\n"
    assert json.loads(rep.read_text())["files"]["a.scheme"] == {"error": "label 2 never occurs"}


# The corpus run's report and standard output, byte for byte.  A change that
# keeps every answer keeps both digests; a change meant to alter a report
# states why and updates them.
CORPUS_REPORT_SHA256 = "24cb7f670dc0a562f8136816c975298dbb6686cc52e625e19ec1cf540ec85f33"
CORPUS_STDOUT_SHA256 = "2aa36c275ba733093b3b9f387a0c46411daa714a143b7716598c9e0d707f97ef"


def test_corpus_run_is_byte_identical(corpus, tmp_path, capsys):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for name, scheme in corpus:
        am.save_scheme(scheme, directory / f"{name}.scheme")
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run_command(["--report", str(report), "corpus", str(directory)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CORPUS_REPORT_SHA256
    assert hashlib.sha256(stdout.encode()).hexdigest() == CORPUS_STDOUT_SHA256
