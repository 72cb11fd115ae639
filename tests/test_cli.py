import json

from rmlab.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_automorph_subcommand(capsys):
    code, out = capture(capsys, ["automorph", "--form", "1,-1,-1", "--p", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["gamma"] == [["2", "1"], ["1", "1"]]
    assert rep["eps"] == "3/2 + 1/2*sqrt(5)"
    assert rep["version"] and "config" in rep


def test_invalid_prime_exits_2(capsys):
    code, out = capture(capsys, ["automorph", "--form", "1,-1,-1", "--p", "4"])
    assert code == 2
    assert "p not prime" in json.loads(out)["error"]["message"]


def test_math_error_exits_1(capsys):
    # 11 splits in Q(sqrt 5): NotRM is a math failure, not a usage failure
    code, out = capture(capsys, ["automorph", "--form", "1,-1,-1", "--p", "11"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NotRM"


def test_reruns_byte_identical(capsys):
    argv = ["dv", "--form", "1,-1,-1", "--gamma", "2,1,1,1", "--p", "2",
            "--levels", "1"]
    _, out1 = capture(capsys, argv)
    _, out2 = capture(capsys, argv)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["divisor"], "the standard configuration crosses geodesics"


def test_theorem_b_subcommand(capsys):
    code, out = capture(capsys, [
        "theorem-b", "--form", "1,-1,-1", "--p", "2", "--n0", "0", "--n1", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem_b"]["all_ok"] is True
    assert all(pt["ok"] for pt in rep["theorem_b"]["points"])


def test_hecke_cosets_subcommand(capsys):
    code, out = capture(capsys, ["hecke-cosets", "--n", "2", "--p", "3"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["cosets"]["reps"]) == 3


def test_intersect_subcommand(capsys):
    code, out = capture(capsys, [
        "intersect", "--seg1", "1/2,1/3,1/2,3", "--seg2=-1/3,1/2,5/4,5/4",
        "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ez_cross"] == rep["winding_oracle"]


def test_residues_subcommand(capsys):
    code, out = capture(capsys, [
        "residues", "--p", "2", "--a", "0", "--b", "inf", "--radius", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["harmonic"] is True
    assert rep["edges"]


def test_modform_subcommand(capsys):
    code, out = capture(capsys, ["modform", "--level", "11", "--nterms", "12"])
    assert code == 0
    rep = json.loads(out)
    assert rep["dim_m2"] == 2
    assert len(rep["basis_qexpansions"]) == 2


def test_json_file_output(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = capture(capsys, ["--json", str(target), "automorph",
                               "--form", "1,0,-2", "--p", "3"])
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["gamma"] == [["3", "4"], ["2", "3"]]


def test_automorph_large_unit_exits_0(capsys):
    code, out = capture(capsys, ["automorph", "--form", "1,1,-105", "--p", "2"])
    assert code == 0
    assert json.loads(out)["form"]["disc"] == 421
