import json
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, expect: int = 0):
    cmd = [sys.executable, "-m", "susypainleve", *args]
    env = {"PYTHONPATH": str(PKG_ROOT / "src"), "PATH": "/usr/bin:/bin",
           "PYTHONDONTWRITEBYTECODE": "1"}
    cp = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600)
    assert cp.returncode == expect, (cp.returncode, cp.stdout[-500:], cp.stderr[-500:])
    return cp


def test_defaults_subcommand():
    cp = run_cli("defaults")
    doc = json.loads(cp.stdout)
    d = doc["defaults"]
    assert d["jet_order"] == 5
    assert d["x_grid"] == {"lo": 0.2, "hi": 4.0, "count": 40}
    assert d["z_grid"] == {"lo": 0.1, "hi": 8.0, "count": 40}
    assert d["tolerance"] == 1e-8


def test_sample_g1_even_is_minus_2x():
    cp = run_cli("sample", "g1", "--parity", "even", "--epsilon", "0.5")
    lines = cp.stdout.strip().splitlines()
    assert lines[0].startswith("# family=g1 a=0 b=-2")
    assert lines[1] == "x,value,deriv1,pole_flag"
    for row in lines[2:6]:
        x, v, dv, flag = row.split(",")
        assert float(v) == pytest.approx(-2.0 * float(x), rel=1e-15)
        assert float(dv) == -2.0
        assert flag == "0"


def test_sample_w2a_row_value():
    cp = run_cli("sample", "w2a", "--grid", "1.0:3.0:21")
    lines = cp.stdout.strip().splitlines()
    first = lines[2].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == pytest.approx(4.0)


def test_sample_json_deterministic():
    # --epsilon1 is the documented alias for the second-order families
    args = ("sample", "G1", "--epsilon1", "1.5", "--parity", "odd",
            "--grid", "0.5:2.0:31", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["schema_version"] == 1
    pt = next(p for p in doc["points"] if abs(p["t"] - 1.0) < 1e-9)
    assert pt["value"] == pytest.approx(-3.0)


def test_verify_w2f_passes():
    cp = run_cli("verify", "w2f", "--tol", "1e-10", "--format", "json")
    doc = json.loads(cp.stdout)
    assert doc["report"]["pass"] is True
    assert doc["report"]["max_rel_residual"] <= 1e-10


def test_verify_g3_inferred_params():
    run_cli("verify", "g3", "--epsilon", "2.5", "--parity", "odd")


def test_verify_corrupt_b_fails():
    run_cli("verify", "g1", "--epsilon", "0.5", "--parity", "even", "--corrupt-b", expect=1)


def test_usage_errors():
    run_cli("sample", "nosuchfamily", expect=2)
    run_cli("sample", "g1", expect=2)  # missing epsilon/parity
    run_cli("chain", expect=2)


def test_degenerate_family_exit_code():
    # w1e collapses identically for the even eps = 1/2 seed: every
    # verification point is value-guarded
    cp = run_cli("verify", "w1e", "--epsilon", "0.5", "--parity", "even",
                 "--format", "json", expect=3)
    doc = json.loads(cp.stdout)
    assert doc["report"]["degenerate"] is True


def test_chain_command(tmp_path):
    out = tmp_path / "chain.json"
    run_cli("chain", "--epsilon", "2.5", "--parity", "odd", "--out", str(out))
    doc = json.loads(out.read_text())
    assert len(doc["links"]) == 5
    assert all(l["pass"] for l in doc["links"])
    branches = {b for l in doc["links"] for b in l["branches"]}
    assert branches == {"principal"}


def test_catalog_applicability_table():
    cp = run_cli("catalog", "--epsilon", "10")
    doc = json.loads(cp.stdout)
    hit = [r for r in doc["rows"] if r["source"] == "w2d" and r["target"] == "w1c"
           and r["k"] == [-1, -1, -1]]
    assert hit and hit[0]["applicable"] is True
    applicable = {(r["source"], r["target"], tuple(r["k"])) for r in doc["rows"] if r["applicable"]}
    assert applicable == {
        ("w1c", "w2a", (1, -1, 1)), ("w1c", "w2d", (1, 1, 1)),
        ("w1f", "w2d", (-1, -1, 1)), ("w1f", "w2e", (-1, 1, 1)),
        ("w2d", "w1c", (-1, -1, -1)), ("w2d", "w1f", (1, 1, -1)),
        ("w2d", "w1f", (1, -1, -1)), ("w2e", "w1b", (-1, -1, -1)),
    }


def test_catalog_function_checks_run_with_parity():
    cp = run_cli("catalog", "--epsilon", "0", "--parity", "odd")
    doc = json.loads(cp.stdout)
    applicable = [r for r in doc["rows"] if r["applicable"]]
    assert len(applicable) == 8
    assert all(r["pass"] for r in applicable)


@pytest.mark.parametrize(
    "args, code",
    [
        # g3 is 0/0 for the even eps = 1/2 seed: a degeneracy
        (("verify", "g3", "--epsilon", "0.5", "--parity", "even"), 3),
        # a non-finite epsilon never reaches the Kummer series
        (("verify", "g1", "--epsilon", "nan", "--parity", "odd"), 2),
        (("sample", "w1a", "--epsilon", "inf", "--parity", "odd"), 2),
        # grids past x = 6 (PIV) or z = 72 (PV) are refused before evaluation
        (("verify", "g1", "--epsilon", "1", "--parity", "odd", "--grid", "0.1:6.5:30"), 2),
        (("chain", "--epsilon", "2.5", "--parity", "odd", "--grid", "0.2:6.1:40"), 2),
        (("verify", "w1c", "--epsilon", "1", "--parity", "odd", "--grid", "0.1:72.5:30"), 2),
        # --tol must be finite and positive: inf would certify the negative control
        (("verify", "g1", "--epsilon", "0.5", "--parity", "even", "--corrupt-b", "--tol", "inf"), 2),
        (("verify", "g1", "--epsilon", "0.5", "--parity", "even", "--tol", "nan"), 2),
        (("verify", "g1", "--epsilon", "0.5", "--parity", "even", "--tol", "0"), 2),
        (("verify", "g1", "--epsilon", "0.5", "--parity", "even", "--tol=-1e-8"), 2),
    ],
)
def test_exit_code_contract(args, code):
    cp = run_cli(*args, expect=code)
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith(("error:", "usage:"))


@pytest.mark.parametrize(
    "args, code",
    [
        # a huge finite epsilon drives the Kummer series past its term budget
        (("verify", "pv1a", "--epsilon", "1e6", "--parity", "odd"), 2),
        # every grid point of this pair state is pole-guarded: a degeneracy
        (("verify", "pv2b", "--epsilon", "3.5", "--parity", "odd"), 3),
        # the parameter formulas square epsilon, which overflows a float
        (("verify", "g1", "--epsilon", "1e300", "--parity", "odd"), 2),
        (("verify", "w1b", "--epsilon", "1e300", "--parity", "even"), 2),
        (("sample", "w1b", "--epsilon", "1e200", "--parity", "odd"), 2),
        (("chain", "--epsilon", "1e160", "--parity", "even"), 2),
        (("catalog", "--epsilon", "1e300", "--parity", "odd"), 2),
        # epsilon - 2 rounds to epsilon, so a seed pair's two energies are equal
        (("verify", "pv2a", "--epsilon", "1e17", "--parity", "odd"), 2),
        (("sample", "pv2a", "--epsilon", "2e16", "--parity", "even"), 2),
        (("catalog", "--epsilon", "1e17", "--parity", "odd"), 2),
    ],
)
def test_exit_code_contract_extremes(args, code):
    cp = run_cli(*args, expect=code)
    assert "Traceback" not in cp.stderr
    if code == 2:
        assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1
    else:
        assert json.loads(cp.stdout)["report"]["degenerate"] is True


@pytest.mark.parametrize("family", ["pv2b", "pv2c", "pv2f"])
def test_a_letter_whose_form_collapses_on_the_seed_samples_no_point(family):
    # the cubic shared by pv2b, pv2c and pv2f vanishes identically on the
    # eps = 3.5 odd seed, so the letters have no value to print
    cp = run_cli("sample", family, "--epsilon", "3.5", "--parity", "odd", expect=3)
    assert cp.stdout == "" and cp.stderr == "error: every grid point is pole-guarded\n"


@pytest.mark.parametrize(
    "args, key",
    [
        # g2 vanishes on the grid and g3 is 0/0 for the even eps = 1/2 seed
        (("chain", "--epsilon", "0.5", "--parity", "even"), "links"),
        (("chain", "--epsilon", "-0.5", "--parity", "even"), "links"),
        (("catalog", "--epsilon", "1.5", "--parity", "odd"), "rows"),
        (("catalog", "--epsilon", "0.5", "--parity", "even"), "rows"),
    ],
)
def test_a_run_whose_every_check_degenerates_exits_3(args, key):
    cp = run_cli(*args, expect=3)
    assert "Traceback" not in cp.stderr
    checked = [entry for entry in json.loads(cp.stdout)[key] if "pass" in entry]
    assert checked and all(entry["degenerate"] and not entry["pass"] for entry in checked)


def test_catalog_without_parity_checks_nothing_and_exits_0():
    doc = json.loads(run_cli("catalog", "--epsilon", "1.5").stdout)
    assert not any("pass" in row for row in doc["rows"])


@pytest.mark.parametrize(
    "command, epsilon",
    [(("verify", "g1"), 1e300), (("chain",), 1e160), (("verify", "pv2a"), 1e17),
     (("catalog",), -1e17)],
)
def test_an_epsilon_out_of_range_is_named(command, epsilon):
    # an overflow or a seed pair with one energy names the epsilon, not errno
    cp = run_cli(*command, f"--epsilon={epsilon!r}", "--parity", "odd", expect=2)
    assert cp.stderr.startswith(f"error: --epsilon {epsilon!r} is out of range: ")
    assert "Numerical result out of range" not in cp.stderr


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    cp = run_cli("verify", "g1", "--epsilon", "1.3", "--parity", "odd", "--out", str(out), expect=2)
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1
    assert str(out) in cp.stderr


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_negative_exponent_epsilon_as_separate_argument(command):
    # argparse reads a lone -2.5e0 as an option unless it is joined to --epsilon
    separate = run_cli(command, "g1", "--epsilon", "-2.5e0", "--parity", "odd")
    joined = run_cli(command, "g1", "--epsilon=-2.5e0", "--parity", "odd")
    assert separate.stdout == joined.stdout != ""


def test_epsilon_without_value_is_a_usage_error():
    cp = run_cli("verify", "g1", "--epsilon", "--parity", "odd", expect=2)
    assert "expected one argument" in cp.stderr


def test_jet_order_option_is_gone():
    # verify reads g, g', g'' only, at order 2; `defaults` keeps jet_order 5,
    # the operator functions' default order (test_defaults_subcommand)
    run_cli("verify", "g1", "--epsilon", "1.3", "--parity", "odd", "--jet-order", "7", expect=2)
    cp = run_cli("verify", "g1", "--epsilon", "1.3", "--parity", "odd", "--format", "json")
    assert "jet_order" not in json.loads(cp.stdout)["config"]


def test_catalog_rows_report_the_tolerance_they_were_checked_at():
    # rows are checked at max(--tol, 1e-7) and certified at max(--tol, 1e-6); each says so
    cp = run_cli("catalog", "--epsilon", "0", "--parity", "odd", "--tol", "1e-12")
    checked = [r for r in json.loads(cp.stdout)["rows"] if "pass" in r and not r["degenerate"]]
    assert checked
    for row in checked:
        assert row["tol"] == 1e-7 and row["certificate_tol"] == 1e-6
        if row["pass"]:
            assert row["max_deviation"] <= row["tol"]


def test_grid_point_cap_is_checked_when_parsed(monkeypatch, capsys):
    import argparse

    from susypainleve import cli, config

    assert cli._parse_grid(f"0.2:4:{cli.GRID_MAX_POINTS}") == (0.2, 4.0, cli.GRID_MAX_POINTS)
    for n in (cli.GRID_MAX_POINTS + 1, 10**9):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_grid(f"0.2:4:{n}")

    # through main: refused before any grid is built
    def never(*args):
        raise AssertionError("an over-cap grid reached evaluation")

    monkeypatch.setattr(config, "linear_grid", never)
    for command in ("sample", "verify"):
        code = cli.main([command, "g1", "--epsilon", "1.3", "--parity", "odd",
                         "--grid", "0.2:4:1000000000"])
        assert code == cli.EXIT_USAGE
        assert "20 <= n <= 100000" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("verify", "g1", "--epsilon", "2.5", "--parity", "odd"),
    ("chain", "--epsilon", "2.5", "--parity", "odd"),
    ("catalog", "--epsilon", "1", "--parity", "even"),
])
def test_json_only_commands_refuse_csv(args, capsys):
    # verify, chain and catalog write JSON only: --format csv is refused, and
    # the config block echoes the format that was written
    from susypainleve import cli

    assert cli.main([*args, "--format", "csv"]) == cli.EXIT_USAGE
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    for fmt in ((), ("--format", "json")):
        assert cli.main([*args, *fmt]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["format"] == "json"


@pytest.mark.parametrize("options, pinned", [
    ((), {"grid": None, "tol": 1e-8, "format": "json"}),
    (("--tol", "1e-6", "--grid", "0.5:3.0:25", "--format", "json"),
     {"grid": [0.5, 3.0, 25], "tol": 1e-6, "format": "json"}),
])
@pytest.mark.parametrize("command, family, parity", [
    ("sample", "G1", "odd"), ("verify", "g1", "even"), ("chain", None, "odd"), ("catalog", None, None),
])
def test_config_block_echoes_the_run(command, family, parity, options, pinned, capsys):
    from susypainleve import cli

    argv = [command] + ([family] if family else []) + ["--epsilon", "2.5"]
    argv += ["--parity", parity] if parity else []
    if command == "sample":
        argv += ["--format", "json"]  # sample writes csv by default
    assert cli.main(argv + list(options)) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"] == {
        "command": command, "family": family, "epsilon": 2.5, "parity": parity, **pinned,
    }


def test_defaults_has_no_config_block(capsys):
    from susypainleve import cli

    assert cli.main(["defaults"]) == cli.EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) == {"schema_version", "defaults"}
