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
        (["verify", "--load", "{deep}"], 1, "recursion"),
        (["verify", "--load", "{bad_word}"], 1,
         "bad word string 'ST^' at position 2"),
        (["verify", "--load", "{non_ascii_word}"], 1,
         "bad word string 'ST^\u0663' at position 2"),
    ],
    ids=[
        "list-bad-level", "verify-no-range", "empty-sweep-5..3",
        "empty-sweep-3..2", "sweep-not-a-range", "load-n-mismatch",
        "sweep-with-n", "sweep-with-load", "out-dir-missing",
        "load-deeply-nested", "load-bad-word", "load-non-ascii-digit",
    ],
)
def test_error_exits_with_one_error_line(tmp_path, capsys, argv, code,
                                         fragment):
    deep = tmp_path / "deep.json"
    deep.write_text('{"N": 6, "group": "gamma0", "reps": ' + "[" * 100_000)
    bad_word = tmp_path / "bad_word.json"
    bad_word.write_text(json.dumps({**GOOD_DOC, "reps": [{"word": "ST^"}]}))
    non_ascii_word = tmp_path / "non_ascii_word.json"
    non_ascii_word.write_text(
        json.dumps({**GOOD_DOC, "reps": [{"word": "ST^\u0663"}]}))
    paths = {"list": _saved_list(tmp_path), "missing": tmp_path / "missing",
             "deep": deep, "bad_word": bad_word,
             "non_ascii_word": non_ascii_word}
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


@pytest.mark.parametrize("command, first_line", [
    (["graph"], "// UNVERIFIED LIST"),
    (["list", "--format", "text"], "# UNVERIFIED LIST"),
    (["render"], "<!-- UNVERIFIED LIST -->"),
])
def test_no_verify_adds_a_first_line_to_every_text_output(
    command, first_line, capsys
):
    args = [*command, "--N", "6", "--group", "gamma1"]
    code, default, _ = run(capsys, *args)
    assert code == 0 and not default.startswith(first_line)
    code, marked, _ = run(capsys, *args, "--no-verify")
    assert code == 0
    assert marked == f"{first_line}\n{default}"


def test_no_verify_render_json_only_adds_verified_false(capsys):
    args = ["render", "--N", "6", "--group", "gammaN", "--format", "json"]
    _, default, _ = run(capsys, *args)
    assert "verified" not in default
    _, marked, _ = run(capsys, *args, "--no-verify")
    assert marked == default[:-3] + ',\n "verified": false\n}\n'
    assert json.loads(marked)["verified"] is False


def test_verify_load_of_a_short_list_prints_a_short_report(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text('{"N": 100, "group": "gammaN", "reps": [{"word": "S"}]}')
    code, out, _ = run(capsys, "verify", "--load", str(path))
    assert code == 1
    assert len(out.splitlines()) <= 25
    assert out.splitlines()[-1] == "  359999 cosets missing in all"


def test_failed_verify_prints_its_report_once(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"N": 6, "group": "gamma0", "reps": [{"word": "S"}]}')
    code, out, _ = run(capsys, "verify", "--load", str(path))
    assert code == 1
    assert out.splitlines()[:2] == [
        "gamma0 N=6: FAIL, 1 reps, 12 cosets",
        "  missing coset (-2, -1)",
    ]


def test_importing_the_cli_loads_no_dataclasses():
    # every fundom process pays for its imports; -S: no site hook can
    # load the module first
    env = dict(os.environ, PYTHONPATH=str(Path(fundom.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, fundom.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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


# ---------------------------------------------------------------------------
# the size cap: every case runs against builders that fail if called


@pytest.fixture
def no_builder(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a list or table was built past the cap")

    for name in ("build", "theta0", "theta1", "theta_full"):
        monkeypatch.setattr(cosets, name, fail)
    for name in ("m_table", "m_distribution", "enumerate_p1", "psi"):
        monkeypatch.setattr(fundom.projline, name, fail)
    for name in ("cusp_tables_text", "cusp_tables_csv"):
        monkeypatch.setattr(fundom.domain, name, fail)


@pytest.mark.parametrize("argv", [
    "list --N 100000000",
    "list --N 200 --group gammaN",
    "render --N 2000 --group gamma1 --format json",
    "graph --N 1000000",
    "cusps --N 1000000",
    "mtable --N 700000",
    "verify --N 200 --group gammaN",
    "verify --sweep 2..100000000",
    # the top level is over the cap only for Gamma(N)
    "verify --sweep 2..200 --group all",
    # psi(510511) = 544,880 fits, psi(510510) does not
    "verify --sweep 510510..510511",
])
def test_over_the_cap_exits_2_before_building(argv, no_builder, capsys):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "over the cap" in err


@pytest.mark.parametrize("n, group", [(1_000_000, "gamma0"), (200, "gammaN"),
                                      (10**8, "gamma1")])
def test_loaded_list_over_the_cap_exits_1(n, group, tmp_path, no_builder,
                                          capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": n, "group": group,
                                "reps": [{"word": "S"}]}))
    code, out, err = run(capsys, "verify", "--load", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "over the cap of 1000000" in err


def test_the_cap_admits_gamma_120():
    assert fundom.cli._index(120, cosets.Group.GAMMA_FULL) == 552_960
    fundom.cli._check_size(120, list(cosets.Group))


def test_index_estimate_is_the_list_length():
    for n in range(2, 31):
        for group in cosets.Group:
            lst = cosets.build(Level(n), group)
            assert fundom.cli._index(n, group) == len(lst), (n, group)
