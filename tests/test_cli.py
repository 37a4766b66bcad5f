import json

import pytest

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


def test_list_bad_level(capsys):
    code, _, err = run(capsys, "list", "--N", "1")
    assert code == 2
    assert "level" in err


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--N", "30", "--group", "gamma0")
    assert code == 0
    assert "pass" in out and "connected" in out


def test_verify_requires_range(capsys):
    code, _, err = run(capsys, "verify", "--group", "gamma0")
    assert code == 2


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


def test_verify_load_n_mismatch(tmp_path, capsys):
    path = _saved_list(tmp_path)
    code, out, err = run(capsys, "verify", "--N", "99", "--load", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "N=12" in err


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


@pytest.mark.parametrize("sweep", ["5..3", "3..2"])
def test_verify_empty_sweep_is_usage_error(capsys, sweep):
    code, out, err = run(capsys, "verify", "--sweep", sweep)
    assert code == 2
    assert out == "" and "empty sweep" in err


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
