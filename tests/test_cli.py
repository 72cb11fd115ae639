import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from rmlab.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

# the nine README commands, keyed by the golden file holding their report
README_COMMANDS = {
    "automorph": "automorph --form 1,-1,-1 --p 2",
    "dv": "dv --form 1,-1,-1 --gamma 2,1,1,1 --p 2 --levels 1",
    "d1": "d1 --seg1 17/35,13/40,19/37,47/16 --seg2=-12/35,15/31,44/35,46/37 --p 3",
    "intersect": "intersect --seg1 1/2,1/3,1/2,3 --seg2=-1/3,1/2,5/4,5/4 --oracle",
    "hecke-cosets": "hecke-cosets --n 6 --p 5",
    "theorem-b": "theorem-b --form 1,-1,-1 --p 2 --n0 0 --n1 2",
    "residues": "residues --p 3 --a 0 --b inf --radius 3",
    "modform": "modform --level 11 --nterms 30",
    "antisym": "--json out.json antisym --f1 1,-1,-1 --f2 1,0,-2 --p 3 --prec 12 "
               "--levels 3 --radius 5",
}


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


def test_automorph_split_field_with_p_in_conductor_exits_1(capsys):
    # disc 68 = 2^2 * 17 and 17 = 1 mod 8: 2 splits in Q(sqrt 17)
    code, out = capture(capsys, ["automorph", "--form", "1,0,-17", "--p", "2"])
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


def test_readme_commands_match_golden_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # antisym writes out.json here
    for name, cmd in README_COMMANDS.items():
        code, out = capture(capsys, shlex.split(cmd))
        assert code == 0, name
        if name == "antisym":
            assert out == ""
            out = (tmp_path / "out.json").read_text()
        assert out == (GOLDEN / f"{name}.json").read_text(), name


def test_python_m_rmlab_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-m", "rmlab", "automorph", "--form", "1,-1,-1", "--p", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["gamma"] == [["2", "1"], ["1", "1"]]


def test_antisym_same_2adic_field_exits_0(capsys):
    # both discriminants give the same 2-adic quadratic field, so the tower
    # Q2[x, y]/(x^2 - D1, y^2 - D2) has zero divisors; the precision loop
    # raises the working precision past them
    for f1, f2 in (("1,0,-2", "1,0,-3"), ("1,1,-1", "1,1,-3")):
        code, out = capture(capsys, ["antisym", "--f1", f1, "--f2", f2,
                                     "--p", "2", "--levels", "1"])
        assert code == 0, (f1, f2)
        steps = json.loads(out)["antisym"]["steps"]
        assert [(s["level"], s["defect"]) for s in steps] == [(1, 6)]


def test_antisym_disc_ratio_p_squared_exits_0(capsys):
    # discs 5 and 20 = 5 * 2^2: value_at asks one orbit query per factor,
    # most of them answered no
    code, out = capture(capsys, ["antisym", "--f1", "1,1,-1", "--f2", "1,0,-5",
                                 "--p", "2", "--levels", "1"])
    assert code == 0
    rep = json.loads(out)["antisym"]
    assert rep["f1"] == [1, 1, -1] and rep["f2"] == [1, 0, -5]
    assert [step["level"] for step in rep["steps"]] == [1]
    assert isinstance(rep["nondecreasing"], bool)
