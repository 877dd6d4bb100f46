"""Smoke test of scripts/reproduce_tables.py against the library it drives."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from xifamily.simulate import ModelSpec, format_cell, parse_method_spec, replicate

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_tables.py"
STUDY_KERNELS = ["power:1", "power:2", "power:3", "expsq", "exp:1"]


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_full_table_rows_match_replicate():
    done = run_script("--table", "1", "--mode", "full", "--reps", "2",
                      "--n", "20", "--sigma", "0,inf")
    assert done.returncode == 0, done.stderr
    header, *rows = list(csv.reader(done.stdout.splitlines()))
    assert header == ["method", "kernel", "sigma=0.0 n=20", "sigma=inf n=20"]

    specs = [f"plugin,{k},std-normal" for k in STUDY_KERNELS]
    specs += [f"simplified,{k}" for k in STUDY_KERNELS]
    specs += ["pearson", "spearman"]
    expected = []
    for spec in specs:
        method = parse_method_spec(spec)
        cells = [
            format_cell(replicate(ModelSpec("quadratic", sigma, 20, seed=0), method, 2, 0))
            for sigma in (0.0, "inf")
        ]
        expected.append([*method.row_label(), *cells])
    expected += [[name, "", "", ""] for name in ("dcorr", "lh", "mic")]
    assert rows == expected


def test_golden_mode_runs():
    done = run_script("--table", "1", "--mode", "golden", "--reps", "2")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 4  # header and three golden cells
