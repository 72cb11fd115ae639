import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rmlab import errors
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


@pytest.mark.parametrize("argv", [
    "modform --level 0",
    "modform --level 11 --nterms 0",
    "modform --level 11 --nterms 1",
    "modform --level 11 --nterms -1",
    "residues --p 3 --a 0 --b inf --radius -1",
    "dv --form 1,-1,-1 --gamma 2,1,1,1 --p 2 --levels -1",
    "d1 --seg1 1/2,1/3,1/2,3 --seg2=-1/3,1/2,5/4,5/4 --p 3 --radius -1",
    "theorem-b --form 1,-1,-1 --p 2 --n0 0 --n1 2 --levels -1",
    "antisym --f1 1,-1,-1 --f2 1,0,-2 --p 3 --prec 0",
])
def test_out_of_range_argument_exits_2(capsys, argv):
    code, out = capture(capsys, shlex.split(argv))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "usage" and "must be at least" in err["message"]


@pytest.mark.parametrize("argv, words", [
    ("d1 --seg1 1,1,2,2 --seg2 1,2,2,1 --p x", "invalid int value"),
    ("automorph --form 1,-1,-1", "required"),
    ("automorph --form 1,-1,-1 --p 2 --bogus 1", "unrecognized arguments"),
    ("no-such-command", "invalid choice"),
    ("", "required"),
])
def test_argparse_errors_print_a_usage_object(capsys, argv, words):
    code, out = capture(capsys, shlex.split(argv))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "usage" and words in err["message"]


@pytest.mark.parametrize("argv", ["--help", "dv --help"])
def test_help_exits_0(capsys, argv):
    assert run(shlex.split(argv)) == 0
    assert "usage: rmlab" in capsys.readouterr().out


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


def test_theorem_b_negative_leading_coefficient_exits_0(capsys):
    # (-1, 1, 1) is RM at p = 2; its base point must lie above the real axis
    code, out = capture(capsys, [
        "theorem-b", "--form=-1,1,1", "--p", "2", "--n0", "0", "--n1", "2"])
    assert code == 0
    rep = json.loads(out)["theorem_b"]
    assert rep["base"] == [-1, 1, 1] and rep["all_ok"] is True


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


def test_readme_commands_match_golden_output_under_python_O(tmp_path):
    # certification checks are not assert statements, so stripping the
    # asserts changes no report
    script = (
        "import contextlib, json, shlex, sys\n"
        "from rmlab.cli import run\n"
        "for name, cmd in json.loads(sys.argv[1]).items():\n"
        "    with open(name + '.out', 'w') as fh, contextlib.redirect_stdout(fh):\n"
        "        code = run(shlex.split(cmd))\n"
        "    print(name, code, file=sys.stderr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    res = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(README_COMMANDS)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stderr.split() == [w for name in README_COMMANDS for w in (name, "0")]
    for name in README_COMMANDS:
        out = (tmp_path / f"{name}.out").read_text()
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


def _fuzz_number(rng, lo: int, hi: int) -> str:
    """A Fraction argument between lo and hi, now and then malformed."""
    if rng.random() < 0.04:
        return rng.choice(["x", "", "1/0", "-3/0", "1/2/3"])
    n = rng.randint(lo * 9, hi * 9)
    return str(n) if rng.random() < 0.3 else f"{n}/{rng.randint(1, 9)}"


def _fuzz_list(rng, ranges) -> str:
    """Comma-separated numbers, one per range; now and then one too few or
    one too many."""
    nums = [_fuzz_number(rng, lo, hi) for lo, hi in ranges]
    r = rng.random()
    if r < 0.03:
        nums = nums[:-1]
    elif r < 0.06:
        nums.append("1")
    return ",".join(nums)


def _fuzz_int(rng, choices) -> str:
    """An integer option's value, now and then not an integer."""
    if rng.random() < 0.04:
        return rng.choice(["x", "", "1/2", "2.0", "0x3"])
    return str(rng.choice(choices))


def _fuzz_argv(rng) -> list[str]:
    seg = [(-2, 2), (0, 2)] * 2  # y <= 0 now and then: not a point
    command = rng.choice(["d1", "intersect", "intersect", "hecke-cosets"])
    if command == "hecke-cosets":
        return [command, "--n=" + _fuzz_int(rng, range(-1, 41)),
                "--p=" + _fuzz_int(rng, [2, 3, 5, 7, 11, 1, 4, 0, -3])]
    argv = [command, "--seg1=" + _fuzz_list(rng, seg), "--seg2=" + _fuzz_list(rng, seg)]
    if command == "d1":
        return argv + ["--p=" + _fuzz_int(rng, [2, 3, 5, 1, 4]),
                       "--radius=" + _fuzz_int(rng, [-1, 0, 0, 1])]
    if rng.random() < 0.8:
        argv.append("--g=" + _fuzz_list(rng, [(-1, 1)] * 4))
    return argv + (["--oracle"] if rng.random() < 0.5 else [])


def test_cli_fuzz_outcomes_are_typed(capsys):
    # every run of the changed commands either reports, fails with a typed
    # math error (exit 1) or with a usage object (exit 2), never a traceback
    rng = random.Random(2016)
    kinds = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.RmlabError)}
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        argv = _fuzz_argv(rng)
        code, out = capture(capsys, argv)
        rep = json.loads(out)
        assert code in codes, argv
        codes[code] += 1
        if code == 0:
            assert rep["config"]["command"] == argv[0], argv
        else:
            kind = rep["error"]["kind"]
            assert (kind == "usage") if code == 2 else (kind in kinds), (argv, rep)
    assert min(codes.values()) > 0, codes
