"""Command-line driver: selection, exit codes, and certificate output."""

import dataclasses
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sympderiv import checks
from sympderiv.cli import main


def test_list_exits_zero(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for entry in checks.ALL_CHECKS:
        assert entry.id in out


def test_single_check_passes(capsys):
    assert main(["--check", "core-values", "--genus", "2"]) == 0
    out = capsys.readouterr().out
    assert "core-values" in out
    assert "summary: 1 pass, 0 fail, 0 other" in out


def test_inapplicable_genus_reports_skipped(capsys):
    assert main(["--check", "well-definedness", "--genus", "3"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_json_certificate_is_deterministic(tmp_path, capsys):
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    args = ["--check", "d2-rank", "--check", "core-values", "--genus", "2"]
    assert main(args + ["--json", str(p1)]) == 0
    assert main(args + ["--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["genus"] == 2
    assert [c["id"] for c in doc["checks"]] == ["d2-rank", "core-values"]
    for c in doc["checks"]:
        assert c["status"] == "pass"
        assert "seconds" not in c  # timings stay out of the certificate


@pytest.mark.parametrize("g", [2, 3, 4])
def test_certificate_matches_golden(g, tmp_path, capsys):
    """The full-suite certificate is the behaviour contract: it must stay
    byte-identical to the committed one written by `verify --all --genus g
    --json` (seed 0)."""
    out = tmp_path / "cert.json"
    assert main(["--all", "--genus", str(g), "--json", str(out)]) == 0
    golden = Path(__file__).parent / "data" / ("certificate-g%d.json" % g)
    assert out.read_bytes() == golden.read_bytes()


def test_certificate_gets_the_mode_of_a_plain_file(tmp_path, capsys):
    """Under umask 022 the certificate is 0644, as a plain open makes it,
    not the 0600 of its temporary file."""
    p = tmp_path / "cert.json"
    old = os.umask(0o022)
    try:
        assert main(["--check", "core-values", "--json", str(p)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(p.stat().st_mode) == 0o644


def test_seed_recorded_in_certificate(tmp_path, capsys):
    p = tmp_path / "cert.json"
    assert main(["--check", "core-values", "--seed", "7",
                 "--json", str(p)]) == 0
    assert json.loads(p.read_text())["seed"] == 7


@pytest.mark.parametrize("argv, message", [
    # random.Random seeds with |seed|: -1 would draw the instances of 1
    (["--all", "--seed", "-1"], "non-negative int"),
    (["--all", "--seed", "x"], "invalid int value"),
    (["--check", "no-such-check"], "invalid choice: 'no-such-check'"),
    (["--all", "--genus", "1"], "invalid choice: 1"),
    (["--all", "--genus", "5"], "invalid choice: 5"),
    ([], "nothing selected"),
    (["--all", "--max-minutes", "10"], "unrecognized arguments"),
    (["--check", "core-values", "--json", "no-such-dir/c.json"],
     "--json directory does not exist"),
    (["--check", "core-values", "--json", "."], "--json needs a file path"),
    (["--check", "core-values", "--json", ""], "--json needs a file path"),
    pytest.param(["--check", "core-values", "--json", "/proc/self/cert.json"],
                 "--json directory cannot take the certificate",
                 marks=pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                          reason="no /proc")),
], ids=["negative-seed", "non-int-seed", "unknown-check", "genus-1",
        "genus-5", "nothing-selected", "unknown-option", "missing-json-dir",
        "json-is-a-directory", "empty-json-path", "json-dir-unwritable"])
def test_usage_error_exits_2_before_any_check(argv, message, capsys,
                                             monkeypatch, tmp_path):
    def run_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(checks, "run_check", run_check)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("g", [2, 3])
def test_verify_loads_neither_numpy_random_nor_openssl(g):
    """Checks draw from Python's random, so a whole run adds neither
    numpy's random module nor OpenSSL, through secrets and hashlib, to
    what importing numpy loads (numpy 1.x loads its random module on
    import, numpy 2 only on first use).  Nor does a run load fractions, or
    numpy.ma, which a plain ``np.unique(x)`` imports."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import numpy\n"
            "watched = {'numpy.random', 'secrets', '_hashlib', 'fractions',\n"
            "           'numpy.ma'}\n"
            "before = watched & set(sys.modules)\n"
            "from sympderiv.cli import main\n"
            f"assert main(['--all', '--genus', '{g}']) == 0\n"
            "print(sorted(watched & set(sys.modules) - before))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_raising_check_is_reported_as_failure(tmp_path, capsys, monkeypatch):
    def boom(genus, seed):
        raise ZeroDivisionError("no luck")

    spec = dataclasses.replace(checks.CHECKS["core-values"], fn=boom)
    monkeypatch.setitem(checks.CHECKS, "core-values", spec)
    p = tmp_path / "cert.json"
    args = ["--check", "d2-rank", "--check", "core-values", "--json", str(p)]
    assert main(args) == 1
    doc = json.loads(p.read_text())
    assert [c["status"] for c in doc["checks"]] == ["pass", "fail"]
    assert doc["checks"][1]["witness"] == {"exception": "ZeroDivisionError",
                                           "message": "no luck"}
    assert "Traceback" in capsys.readouterr().err


def test_check_seconds_ignore_wall_clock_steps(monkeypatch):
    """Check seconds come from a monotonic clock: a wall clock that steps
    an hour ahead at every reading does not reach them."""
    steps = iter(range(0, 10 ** 9, 3600))
    monkeypatch.setattr(time, "time", lambda: next(steps))
    assert checks.run_check("core-values", 2).seconds < 60
