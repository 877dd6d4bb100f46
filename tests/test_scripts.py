"""Smoke tests of the scripts against the library they drive."""

import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from xifamily.simulate import ModelSpec, format_cell, parse_method_spec, replicate

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_tables.py"
CALIBRATION = ROOT / "scripts" / "null_calibration.py"
STUDY_KERNELS = ["power:1", "power:2", "power:3", "expsq", "exp:1"]


def run_script(*args, script=SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
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


def test_null_calibration_runs():
    done = run_script("--n", "100", "--reps", "1000", script=CALIBRATION)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "kernel power:1, n=100, reps=1000"
    assert lines[1] == "closed-form null variance: 0.400000"
    assert len(lines) == 7  # and the empirical variance, mean and three rejection rates


def load_output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_on_a_small_grid(monkeypatch):
    digest = load_output_digest()
    grid = {
        "kernels": ["power:1", "power:0.5", "custom"],
        "maps": ["std-normal", "empirical"],
        "y_shapes": ["distinct", "binary", "constant"],
        "x_shapes": ["distinct", "tied"],
        "sizes": [3, 20],
    }
    families, total = digest.digests(grid)
    assert len(families) == 12
    assert len(set(families.values())) == 12
    assert digest.digests(grid) == (families, total)
    # a changed output changes the digest of every family
    monkeypatch.setattr(digest, "spearman", lambda s: 0.0)
    changed, changed_total = digest.digests(grid)
    assert changed_total != total
    assert all(changed[k] != families[k] for k in families)


def test_output_digest_runs():
    # every kernel, map, y shape and x shape of the script's grid, on fewer sizes
    digest = load_output_digest()
    grid = {**digest.GRID, "sizes": [3, 50]}
    families, total = digest.digests(grid)
    assert len(families) == 24
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in families.values())
    assert digest.digests(grid) == (families, total)


def test_output_digest_values_lists_every_recorded_call(monkeypatch, capsys):
    digest = load_output_digest()
    grid = {
        "kernels": ["power:1", "custom"],
        "maps": ["empirical"],
        "y_shapes": ["distinct", "constant"],
        "x_shapes": ["distinct"],
        "sizes": [7],
    }
    lines = list(digest.value_lines(grid))
    # per family: the orders, spearman, chatterjee, then per kernel rank, simplified
    # and one plugin (a coefficient and two tests each), and one sigma2_ustat per map
    assert len(lines) == 2 * (2 + 3 + 2 * 3 * 3 + 2)
    assert all(line.count(" | ") >= 2 for line in lines)
    family, call, outputs = lines[0].split(" | ", 2)
    assert (family, call) == ("n=7 y=distinct x=distinct", "order_by_x, ranks")
    assert re.fullmatch(r"array\(7,\) sha256:[0-9a-f]{16}; array\(7,\) sha256:[0-9a-f]{16}", outputs)
    assert "n=7 y=distinct x=distinct | spearman | " in lines[1]
    refused = "n=7 y=constant x=distinct | coefficient chatterjee power:1 | 'DegenerateDataError'; "
    assert any(line.startswith(refused) for line in lines)
    monkeypatch.setattr(digest, "GRID", grid)
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--values"])
    assert digest.main() == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_count_lines_splits_code_from_docstrings():
    spec = importlib.util.spec_from_file_location("count_lines", ROOT / "scripts" / "count_lines.py")
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    source = (
        '"""Module doc,\n\nthree lines."""\n\nimport os  # a comment\n# only a comment\n\n\n'
        'def f():\n    """One line."""\n    return (1,\n            2)\n'
    )
    assert counter.count(source) == (4, 4)  # import, def and return's two; 3 + 1
