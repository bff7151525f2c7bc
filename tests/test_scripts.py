"""Smoke tests of the scripts under scripts/."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def run_verification(*args):
    return run_script("run_verification.py", *args)


def test_run_verification_on_one_instance():
    out = run_verification("--instances", "quantum-plane")
    assert "0 unexpected" in out
    assert "unexpected outcomes: 0" in out


def test_run_verification_prints_the_peak_rss():
    # the import line, each instance row and the total line carry the
    # process's peak RSS so far, in MB, which never falls; the import line
    # comes first and also gives the seconds spent importing twistres
    out = run_verification("--instances", "example-5.2", "quantum-plane",
                           "--hdeg", "2", "--gdeg", "2").splitlines()
    seconds, imported = map(float, re.fullmatch(
        r"import: (\d+\.\d{3})s, (\d+\.\d) MB peak", out[0]).groups())
    rows = [float(re.fullmatch(r".* (\d+\.\d) MB peak", line).group(1))
            for line in out[1:-1]]
    total = float(re.fullmatch(r"total: .*, peak RSS: (\d+\.\d) MB",
                               out[-1]).group(1))
    assert seconds > 0
    assert len(rows) == 2 and 0 < imported <= rows[0] <= rows[1] <= total


def test_run_verification_prints_the_cli_report_digest(capsys):
    # each row's sha256 is that of the text "twistres verify --json" prints
    # for the instance at the same window
    from twistres.cli import main

    window = ["--hdeg", "2", "--gdeg", "2"]
    out = run_verification("--instances", "quantum-plane", *window).splitlines()
    digests = [re.search(r" sha256 ([0-9a-f]{64}) ", line).group(1)
               for line in out[1:-1]]
    assert main(["verify", "--instance", "quantum-plane", *window, "--json"]) == 0
    printed = capsys.readouterr().out
    assert digests == [hashlib.sha256(printed.encode("utf-8")).hexdigest()]


def test_negative_controls_fail_at_a_small_internal_budget():
    # the controls run at their own internal degrees, so at --gdeg 1 they
    # still fail as expected
    out = run_verification("--instances", "example-5.2", "quantum-plane",
                           "corrupted-twist", "--hdeg", "2", "--gdeg", "1")
    assert "unexpected outcomes: 0" in out


def test_run_verification_through_the_koszul_smash_pipeline():
    # c2-skew carries a Hopf action, so its battery builds K (x)_tau rbar(kC2)
    out = run_verification("--instances", "c2-skew", "--hdeg", "2", "--gdeg", "2")
    assert "unexpected outcomes: 0" in out


def test_example_52_walkthrough_states_its_identities():
    # exit 0 means AW o EZ = 1 held on b and EZ o AW = 1 failed on a
    out = run_script("example_52_walkthrough.py")
    assert "AW(EZ(b)) == b:     True" in out
    assert "EZ(AW(a)) == a:     False" in out
    assert out.count("== b:") == 1
