"""The shipped examples must run and produce their documented findings."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "metadata layout" in out
    assert "Generated by ALDAcc" in out
    assert "alda_assert failed" in out  # the double free is caught
    assert "normalized overhead" in out


def test_race_detection():
    out = run_example("race_detection.py")
    racy, locked = out.split("LOCKED")
    assert "Eraser" in racy and "FastTrack" in racy
    # both detectors fire on the racy version
    assert "Eraser   : 0 report(s)" not in racy
    assert "FastTrack: 0 report(s)" not in racy
    # FastTrack is clean on the locked version
    assert "FastTrack: 0 report(s)" in locked


def test_custom_sanitizer():
    out = run_example("custom_sanitizer.py")
    assert "2 finding(s)" in out
    assert "fsOnClose" in out  # double close
    assert "fsOnExit" in out   # leaked handle


def test_combined_analysis():
    out = run_example("combined_analysis.py")
    assert "combined" in out
    assert "speedup from combining" in out
    # the combined layout shows the cross-analysis coalesced group
    assert "addr2Lock" in out and "addr2Poison" in out


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "race_detection.py",
            "custom_sanitizer.py", "combined_analysis.py"} <= names

