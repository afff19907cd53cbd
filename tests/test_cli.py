"""End-to-end tests of the command-line front end.

Each case shells out to ``python3 -m logderiv.cli`` so the exit codes
and file outputs are exactly what a user sees.  Expected values mirror
the module-level oracles (single-pole level set, divergent real-pole
integral, n/800 lower rows).
"""

import json
import math
import re
import subprocess
import sys

import pytest

from logderiv import DiskPolynomial, PoleSet, equally_spaced
from logderiv.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "logderiv.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def write_poles(path, angles):
    path.write_text(PoleSet(tuple(angles)).to_json())
    return str(path)


def test_verify_equally_spaced_passes(tmp_path):
    poles = write_poles(tmp_path / "p.json", equally_spaced(4).angles)
    proc = run_cli("verify", "--poles", poles, "--p", "1.0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert doc["mean_bound"]["unweighted_ge_weighted"] is True
    assert doc["mean_bound"]["weighted_ge_bound"] is True
    assert doc["level_concentration"]["ok"] is True


def test_verify_divergent_integral_counts_as_pass(tmp_path):
    # a pole on the real axis makes the p=2 integral infinite
    poles = write_poles(tmp_path / "p.json", [0.0])
    proc = run_cli("verify", "--poles", poles, "--p", "2.0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["mean_bound"]["weighted"]["divergent"] is True
    assert doc["mean_bound"]["weighted"]["value"] is None
    assert doc["ok"] is True


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json at all")
    proc = run_cli("verify", "--poles", str(bad), "--p", "1.0")
    assert proc.returncode == 2
    assert "malformed" in proc.stderr


def test_missing_file_exits_2(tmp_path):
    proc = run_cli("verify", "--poles", str(tmp_path / "absent.json"))
    assert proc.returncode == 2


def test_invalid_parameter_exits_2(tmp_path):
    poles = write_poles(tmp_path / "p.json", [0.5])
    proc = run_cli("verify", "--poles", poles, "--p", "-1.0")
    assert proc.returncode == 2
    assert "invalid input" in proc.stderr


# Input files that once escaped as a traceback (exit 1) or, for the NaN
# zero, were reported as a BOUND VIOLATION.
BAD_INPUT_FILES = [
    ("verify", '{"angles": [Infinity]}'),
    ("measure", '{"angles": [1.0, -Infinity]}'),
    ("norms", "{}"),
    ("norms", '{"zeros": [[0.5, 0.1, 0.2]]}'),
    ("norms", '{"zeros": [[0.5, 0.1]], "leading": 2.0}'),
    ("norms", '{"zeros": [[NaN, 0.0]]}'),
    ("norms", '{"zeros": [[0.5, 0.1]], "leading": [Infinity, 0.0]}'),
    # a string of digits, a boolean and a fractional count were read as
    # numbers, and the command exited 0
    ("measure", '{"angles": "123"}'),
    ("verify", '{"angles": [true]}'),
    ("measure", '{"n": 2.9, "angles": [0.5, 1.5]}'),
    ("norms", '{"zeros": [[true, 0]]}'),
]


@pytest.mark.parametrize("command,text", BAD_INPUT_FILES)
def test_bad_input_file_exits_2(command, text, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    proc = run_cli(command, "--poles", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "invalid input" in proc.stderr
    assert "Traceback" not in proc.stderr


# Values that were once replaced by a default (a given 0) or dropped
# (--p for the area objective) without complaint.
BAD_FLAG_VALUES = [
    ("verify", ["--tol", "0"]),
    ("explore", ["--objective", "mean", "--p", "0"]),
    ("explore", ["--objective", "weighted-mean", "--p", "0"]),
    ("explore", ["--objective", "area", "--p", "3"]),
    ("explore", ["--objective", "mean", "--tol", "0"]),
    # an infinite p got a NaN floor and read as a bound violation
    ("verify", ["--p", "inf"]),
    ("explore", ["--objective", "mean", "--p", "inf"]),
    # an empty corpus checked nothing and passed
    ("norms", ["--n", "0"]),
    ("norms", ["--n", "-3"]),
]


@pytest.mark.parametrize("command,flags", BAD_FLAG_VALUES)
def test_bad_flag_value_exits_2(command, flags, tmp_path, capsys):
    argv = [command, *_required_args(command, tmp_path), *flags]
    if command == "explore":
        argv += ["--seeds", "1", "--budget", "100"]
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("n,code", [(2, 0), (6, 0), (30, 3)])
def test_verify_large_p_answers_or_exits_3(n, code, tmp_path):
    # p^p in the floor's constant was an OverflowError traceback; at
    # n = 6 the floor's n^(p-1) overflows too, and at n = 30 so does
    # |g|^p in the means, which is a numerical failure
    poles = write_poles(tmp_path / "p.json", [0.3 + 2.0 * math.pi * k / n for k in range(n)])
    proc = run_cli("verify", "--poles", poles, "--p", "400")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        bound = json.loads(proc.stdout)["mean_bound"]["lower_bound"]
        assert 0.0 < bound < math.inf


def test_verify_underflowed_mean_exits_3(tmp_path):
    # At p = 1e6 the weighted integrand |x g|^p of the README set (about
    # 2/p in all) underflows at every node.  The mean was reported as 0.0
    # with error 0.0, a false BOUND VIOLATION with exit 1.
    poles = write_poles(tmp_path / "p.json", [math.pi / 2, 3 * math.pi / 2])
    proc = run_cli("verify", "--poles", poles, "--p", "1e6")
    assert proc.returncode == 3, proc.stderr
    assert "underflowed" in proc.stderr
    assert "BOUND VIOLATION" not in proc.stderr
    proc = run_cli("verify", "--poles", poles, "--p", "1e4")
    assert proc.returncode == 0, proc.stderr
    weighted = json.loads(proc.stdout)["mean_bound"]["weighted"]["value"]
    assert weighted == pytest.approx(2.0e-4, rel=1e-3)


def test_cli_loads_no_scipy(tmp_path):
    # only explore's Nelder-Mead uses scipy, and it imports it on call
    argv = ["verify", "--poles", write_poles(tmp_path / "p.json", [math.pi / 2]),
            "--out", str(tmp_path / "out")]
    code = (
        "import sys, logderiv.cli\n"
        f"assert logderiv.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parser_reuse_leaks_no_flag_values(tmp_path):
    # main() reuses one parser per process: a second command in the same
    # process must see the defaults, not the first command's values
    poles = write_poles(tmp_path / "p.json", [0.4, 2.0, 5.5])
    first, second, fresh = (tmp_path / name for name in ("first", "second", "fresh"))
    flags = ["--p", "2", "--delta", "0.4", "--tol", "1e-6", "--format", "csv"]
    assert main(["verify", "--poles", poles, *flags, "--out", str(first)]) == 0
    assert main(["verify", "--poles", poles, "--out", str(second)]) == 0
    proc = run_cli("verify", "--poles", poles, "--out", str(fresh))
    assert proc.returncode == 0, proc.stderr
    assert second.read_bytes() == fresh.read_bytes()
    assert first.read_bytes() != second.read_bytes()


def test_explore_mean_with_no_finite_value_exits_3():
    # |g|^400 overflows in every evaluation, so the search has no best
    # configuration; that was a TypeError traceback
    proc = run_cli("explore", "--n", "2", "--objective", "mean", "--p", "400",
                   "--seeds", "1", "--budget", "100")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_witness_writes_verified_certificate(tmp_path):
    poles = write_poles(tmp_path / "p.json", [math.pi / 2, math.pi / 2])
    out = tmp_path / "cert.json"
    proc = run_cli(
        "witness", "--poles", poles, "--delta", "0.25", "--m", "1",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["verification"]["ok"] is True
    assert all(doc["verification"]["checks"].values())
    assert doc["certificate"]["n"] == 2
    assert doc["certificate"]["delta"] == 0.25


def test_measure_single_pole_level_set(tmp_path):
    poles = write_poles(tmp_path / "p.json", [math.pi / 2])
    proc = run_cli("measure", "--poles", poles, "--delta", "0.2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (a, b), (c, d) = doc["level_set"]["intervals"]
    assert abs(a + 1.0) < 1e-12 and abs(b + 0.5) < 1e-12
    assert abs(c - 0.5) < 1e-12 and abs(d - 1.0) < 1e-12
    assert abs(doc["level_set"]["measure"] - 1.0) < 1e-12
    assert doc["ok"] is True


def test_measure_exploration_mode_above_half(tmp_path):
    poles = write_poles(tmp_path / "p.json", [math.pi / 2])
    proc = run_cli("measure", "--poles", poles, "--delta", "0.6")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["window"] is None
    assert doc["level_set"]["measure"] == 0.0
    assert doc["ok"] is True


def test_sharpness_csv_rows(tmp_path):
    proc = run_cli("sharpness", "--n", "3", "--p", "2.0", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,lower_bound,family_value,upper_bound,searched_min"
    assert len(lines) == 4
    for n, line in zip((1, 2, 3), lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(n)
        assert float(fields[1]) == n / 800.0
        assert float(fields[1]) < float(fields[2]) <= float(fields[3]) * (1 + 1e-9)


def test_norms_random_corpus(tmp_path):
    proc = run_cli("norms", "--n", "6", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 6
    assert all(r["ok"] for r in reports)


def test_norms_from_polynomial_file(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(DiskPolynomial((0.5 + 0.1j, -0.3j, 0.2)).to_json())
    proc = run_cli("norms", "--poles", str(poly), "--delta", "0.4")
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 1
    assert reports[0]["n"] == 3
    assert reports[0]["quarter_ok"] and reports[0]["imbalance_ok"]


@pytest.mark.parametrize("n", [1, 1100])
@pytest.mark.parametrize("root", [1.0, -1.0])
def test_norms_on_powers_of_endpoint_factor(n, root, tmp_path):
    # p = (z - root)^n; past n = 1023 the norms leave the float range and
    # print as null in JSON and as empty fields in CSV
    poly = tmp_path / "poly.json"
    poly.write_text(DiskPolynomial((root,) * n).to_json())
    proc = run_cli("norms", "--poles", str(poly))
    assert proc.returncode == 0, proc.stderr
    assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
    (r,) = json.loads(proc.stdout)
    assert r["ok"] and r["quarter_ok"] and r["imbalance_ok"]
    assert r["endpoint_ratios"][str(int(root))] is None
    assert r["endpoint_ratios"][str(-int(root))] == pytest.approx(n / 2.0, rel=1e-12)
    assert r["positivity"] == pytest.approx([1.0, 1.0], abs=1e-12)
    if n == 1:
        assert (r["norm"], r["deriv_norm"]) == pytest.approx((2.0, 1.0), rel=1e-12)
    else:
        assert r["norm"] is None and r["deriv_norm"] is None
    proc = run_cli("norms", "--poles", str(poly), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    norm, dnorm = proc.stdout.splitlines()[1].split(",")[2:4]
    if n == 1:
        assert (float(norm), float(dnorm)) == pytest.approx((2.0, 1.0), rel=1e-12)
    else:
        assert norm == dnorm == ""


def test_explore_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "study.csv"
    args = (
        "explore", "--n", "2", "--objective", "mean", "--p", "1.0",
        "--seeds", "2", "--budget", "200", "--seed", "7",
        "--format", "csv", "--out", str(out),
    )
    first = run_cli(*args)
    assert first.returncode == 0, first.stderr
    blob = out.read_bytes()
    side = (tmp_path / "study.csv.angles.json").read_bytes()
    second = run_cli(*args)
    assert second.returncode == 0
    assert out.read_bytes() == blob
    assert (tmp_path / "study.csv.angles.json").read_bytes() == side
    header = blob.decode().splitlines()[0]
    assert header == "n,objective,best_value,reference_value,gap,seeds,evals,seconds"
    assert blob.decode().splitlines()[1].endswith(",0.0")


def test_explore_single_pole_json(tmp_path):
    proc = run_cli("explore", "--n", "1", "--seeds", "1", "--budget", "100")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["record"]["seconds"] == 0.0
    assert abs(doc["record"]["gap"]) <= 2e-6
    assert doc["record"]["bound_violations"] == 0


def test_explore_timing_reports_numeric_seconds(tmp_path):
    proc = run_cli("explore", "--n", "1", "--seeds", "1", "--budget", "100", "--timing")
    assert proc.returncode == 0, proc.stderr
    seconds = json.loads(proc.stdout)["record"]["seconds"]
    assert type(seconds) is float and seconds > 0.0
    out = tmp_path / "study.csv"
    proc = run_cli(
        "explore", "--n", "2", "--objective", "mean", "--p", "1.0",
        "--seeds", "1", "--budget", "100", "--timing",
        "--format", "csv", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert float(out.read_text().splitlines()[1].rsplit(",", 1)[1]) > 0.0


def test_explore_budget_failure_exits_3(tmp_path):
    proc = run_cli(
        "explore", "--n", "4", "--seeds", "60", "--budget", "100"
    )
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


# Flags that some commands accepted once without reading them.
UNREAD_FLAGS = [
    ("verify", "--seed", "9"),
    ("witness", "--seed", "9"),
    ("measure", "--seed", "9"),
    ("witness", "--tol", "1e-3"),
    ("measure", "--tol", "1e-3"),
    ("norms", "--tol", "1e-3"),
    ("sharpness", "--tol", "1e-3"),
    ("witness", "--format", "csv"),
]


def _required_args(command, tmp_path):
    if command in ("verify", "witness", "measure"):
        return ["--poles", write_poles(tmp_path / "p.json", [math.pi / 2])]
    if command == "explore":
        return ["--n", "1"]
    return []


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_unread_flag_is_rejected(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_required_args(command, tmp_path), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# Every flag each command registers besides its required ones, with a
# cheap value.
REGISTERED_FLAGS = {
    "verify": ["--delta", "0.25", "--p", "1.0", "--tol", "1e-6", "--format", "csv"],
    "witness": ["--delta", "0.25", "--m", "2"],
    "measure": ["--delta", "0.2", "--format", "csv"],
    "sharpness": ["--p", "1.0", "--n", "2", "--seed", "3", "--format", "csv"],
    "norms": ["--delta", "0.4", "--n", "2", "--seed", "3", "--format", "csv"],
    "explore": [
        "--p", "1.0", "--objective", "mean", "--seeds", "1",
        "--budget", "100", "--seed", "3", "--tol", "1e-4", "--timing", "--format", "csv",
    ],
}


@pytest.mark.parametrize("command", sorted(REGISTERED_FLAGS))
def test_registered_flags_are_accepted(command, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    registered = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out)) - {"--help"}
    argv = [*_required_args(command, tmp_path), *REGISTERED_FLAGS[command]]
    argv += ["--out", str(tmp_path / "out")]
    if command == "norms":
        poly = tmp_path / "poly.json"
        poly.write_text(DiskPolynomial((0.5 + 0.1j, -0.3j)).to_json())
        argv += ["--poles", str(poly)]
    assert {a for a in argv if a.startswith("--")} == registered
    assert main([command, *argv]) == 0
    assert (tmp_path / "out").stat().st_size > 0


def test_explore_unconverged_final_value_exits_3(monkeypatch, capsys):
    # explore --n 12 --tol 1e-4 once printed the radial batch's partial
    # sum (19965.88) as the reference area and exited 0
    import logderiv.explorer as explorer
    from test_explorer import fake_area_integral

    monkeypatch.setattr(explorer, "area_integral", fake_area_integral([]))
    assert main(["explore", "--n", "3", "--seeds", "1", "--budget", "100", "--tol", "1e-4"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "numerical failure" in out.err
