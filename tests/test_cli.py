import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fundom
from fundom import cosets
from fundom.cli import main
from fundom.cosets import theta0, verify
from fundom.residues import Level


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--N", "30", "--group", "gamma0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reps"]) == 72
    assert doc["verified"] is True


def test_list_text(capsys):
    code, out, _ = run(
        capsys, "list", "--N", "6", "--group", "gamma1", "--format", "text"
    )
    assert code == 0
    lines0 = run(capsys, "list", "--N", "6", "--group", "gamma0",
                 "--format", "text")[1]
    assert out == lines0  # Gamma_1(6) list equals Gamma_0(6) list


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--N", "30", "--group", "gamma0")
    assert code == 0
    assert "pass" in out and "connected" in out


def test_verify_sweep_all(capsys):
    code, out, _ = run(capsys, "verify", "--sweep", "2..8", "--group", "all")
    assert code == 0
    assert out.count("pass") == 21  # 7 levels x 3 groups


def test_verify_corrupted_load(tmp_path, capsys):
    lst = theta0(Level(6))
    verify(lst)
    doc = json.loads(lst.to_json())
    doc["reps"][1] = doc["reps"][0]  # inject a duplicate
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--N", "6", "--load", str(path))
    assert code == 1
    assert "duplicate" in out


def test_verify_load_good(tmp_path, capsys):
    lst = theta0(Level(8))
    verify(lst)
    path = tmp_path / "list.json"
    path.write_text(lst.to_json())
    code, out, _ = run(capsys, "verify", "--N", "8", "--load", str(path))
    assert code == 0


def _saved_list(tmp_path, n=12):
    lst = theta0(Level(n))
    verify(lst)
    path = tmp_path / "list.json"
    path.write_text(lst.to_json())
    return path


def test_verify_load_without_n(tmp_path, capsys):
    path = _saved_list(tmp_path)
    code, out, _ = run(capsys, "verify", "--load", str(path))
    assert code == 0
    assert "gamma0 N=12: pass" in out


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (["list", "--N", "1"], 2, "level"),
        (["verify", "--group", "gamma0"], 2, "verify needs"),
        (["verify", "--sweep", "5..3"], 2, "empty sweep"),
        (["verify", "--sweep", "3..2"], 2, "empty sweep"),
        (["verify", "--sweep", "2"], 2, "bad sweep range"),
        (["verify", "--N", "99", "--load", "{list}"], 2, "N=12"),
        (["verify", "--N", "6", "--sweep", "2..4"], 2, "--sweep"),
        (["verify", "--sweep", "2..3", "--load", "{list}"], 2, "--sweep"),
        (["list", "--N", "6", "-o", "{missing}/x.json"], 1, "x.json"),
    ],
    ids=[
        "list-bad-level", "verify-no-range", "empty-sweep-5..3",
        "empty-sweep-3..2", "sweep-not-a-range", "load-n-mismatch",
        "sweep-with-n", "sweep-with-load", "out-dir-missing",
    ],
)
def test_error_exits_with_one_error_line(tmp_path, capsys, argv, code,
                                         fragment):
    paths = {"list": _saved_list(tmp_path), "missing": tmp_path / "missing"}
    argv = [a.format(**paths) for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert fragment in err


@pytest.mark.parametrize("cmd", ["list", "render", "graph"])
def test_failed_verification_exits_1_with_the_report(
    monkeypatch, capsys, cmd
):
    def with_duplicate(level):
        lst = theta0(level)
        lst.reps[-1] = lst.reps[0]  # same length, one coset twice
        return lst

    monkeypatch.setattr(cosets, "theta0", with_duplicate)
    code, out, err = run(capsys, cmd, "--N", "6")
    assert code == 1
    assert out == ""
    assert "duplicate coset" in err


GOOD_DOC = {"N": 6, "group": "gamma0", "reps": [{"word": "ST"}]}


@pytest.mark.parametrize(
    "text",
    [
        None,  # no such file
        "{not json",
        json.dumps({"N": 6, "reps": []}),
        json.dumps({**GOOD_DOC, "group": "gamma7"}),
        json.dumps({**GOOD_DOC, "N": 1}),
        json.dumps({**GOOD_DOC, "N": 6.0}),
        json.dumps({**GOOD_DOC, "reps": [{"word": "ST^x"}]}),
        json.dumps({**GOOD_DOC, "reps": [{"word": 3}]}),
        json.dumps([1, 2]),
    ],
    ids=[
        "missing-file", "invalid-json", "missing-key", "unknown-group",
        "level-below-2", "float-level", "bad-word", "word-not-string",
        "not-an-object",
    ],
)
def test_verify_load_malformed_fails_closed(tmp_path, capsys, text):
    path = tmp_path / "list.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "verify", "--load", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_mtable(capsys):
    code, out, _ = run(capsys, "mtable", "--N", "6")
    assert code == 0
    rows = dict(
        line.split("\t")
        for line in out.splitlines()[1:5]
    )
    assert rows == {"-2": "1", "0": "0", "2": "0", "3": "1"}


def test_mtable_n8_all_zero(capsys):
    _, out, _ = run(capsys, "mtable", "--N", "8")
    body = [l.split("\t") for l in out.splitlines()[1:5]]
    assert all(m == "0" for _, m in body)


def test_mtable_json(capsys):
    _, out, _ = run(capsys, "mtable", "--N", "30", "--format", "json")
    doc = json.loads(out)
    assert doc["M_j"]["3"] == 3 and doc["M_j"]["5"] == 3


def test_cusps(capsys):
    code, out, _ = run(capsys, "cusps", "--N", "30")
    assert code == 0
    assert "1/2\t15" in out
    widths = [
        int(line.split("\t")[1])
        for line in out.splitlines()
        if line.count("\t") == 1 and not line.startswith(("cusp", "total"))
    ]
    assert sum(widths) == 72


def test_render_svg(tmp_path, capsys):
    out_file = tmp_path / "domain.svg"
    code, _, _ = run(
        capsys, "render", "--N", "6", "--group", "gamma0", "--labels",
        "--out", str(out_file),
    )
    assert code == 0
    svg = out_file.read_text()
    assert svg.count("<path ") == 12
    # determinism
    out2 = tmp_path / "domain2.svg"
    run(capsys, "render", "--N", "6", "--group", "gamma0", "--labels",
        "--out", str(out2))
    assert out2.read_text() == svg


def test_render_counts(capsys):
    _, out, _ = run(capsys, "render", "--N", "8", "--group", "gamma1")
    assert out.count("<path ") == 24
    _, out, _ = run(capsys, "render", "--N", "30", "--group", "gamma0")
    assert out.count("<path ") == 72


def test_render_no_verify_watermark(capsys):
    _, out, _ = run(capsys, "render", "--N", "6", "--no-verify")
    assert "UNVERIFIED" in out


def test_no_verify_marks_svg_and_list_json(capsys):
    code, out, _ = run(capsys, "render", "--N", "6", "--no-verify")
    assert code == 0
    assert out.startswith("<!-- UNVERIFIED LIST -->\n<svg ")
    code, out, _ = run(capsys, "list", "--N", "6", "--no-verify")
    assert code == 0
    assert json.loads(out)["verified"] is False


def test_verify_load_of_a_short_list_prints_a_short_report(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text('{"N": 100, "group": "gammaN", "reps": [{"word": "S"}]}')
    code, out, _ = run(capsys, "verify", "--load", str(path))
    assert code == 1
    assert len(out.splitlines()) <= 25
    assert out.splitlines()[-1] == "  359999 cosets missing in all"


@pytest.mark.parametrize("y_max", ["nan", "inf", "-inf", "-1", "0", "1e308"])
@pytest.mark.parametrize("fmt", ["svg", "json"])
def test_render_bad_y_max_is_usage_error(capsys, y_max, fmt):
    code, out, err = run(
        capsys, "render", "--N", "6", f"--y-max={y_max}", "--format", fmt
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --y-max")


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--N", "6", "--group", "gamma0")
    assert code == 0
    assert out.count("[label=") == 12
    assert 'label="S"' in out


def test_graph_tree_only(capsys):
    _, out, _ = run(
        capsys, "graph", "--N", "8", "--group", "gamma1", "--tree-only"
    )
    assert out.count("[label=") == 24
    assert out.count(" -- ") == 23


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FUNDOM_OUT_DIR", str(tmp_path))
    run(capsys, "mtable", "--N", "6", "--out", "m.txt")
    assert (tmp_path / "m.txt").exists()


def _render_read_100(unbuffered: bool):
    """Run `render --N 20 --group gammaN`, read 100 bytes of its stdout
    and close the pipe; return the exit code, the bytes and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(fundom.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from fundom.cli import main; sys.exit(main())",
         "render", "--N", "20", "--group", "gammaN"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()  # the SVG is about 700 kB, far beyond a pipe buffer
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(), head, err


def test_reader_closing_early_exits_1_without_traceback():
    code, head, err = _render_read_100(unbuffered=False)
    assert code == 1
    assert len(head) == 100
    assert "Traceback" not in err
    assert err.startswith("error:")


def test_reader_closing_early_exits_1_with_unbuffered_stdout():
    # unbuffered stdout hands the text to one write() call, which a
    # closing reader cuts short without an error
    code, head, err = _render_read_100(unbuffered=True)
    assert code == 1
    assert len(head) == 100
    assert "Traceback" not in err
    assert err.startswith("error:")
