import csv

import numpy as np
import pytest

from xifamily.cli import load_csv, main


def write_csv(path, headers, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])
    return str(path)


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


# ---------------------------------------------------------------- loading

def test_load_csv_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match=r"row 3.*'y'.*'oops'"):
        load_csv(path)


def test_load_csv_reports_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x,y\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path)


# ---------------------------------------------------------------- compute

def test_compute_two_point_hand_case(tmp_path, capsys):
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [[1.0, 2.0], [0.2, 0.8]])
    code = main([
        "compute", "--file", path, "--x-col", "x", "--y-col", "y",
        "--h", "power:1", "--f", "uniform:0,1", "--variant", "plugin",
    ])
    assert code == 0
    report = parse_kv(capsys.readouterr().out)
    assert float(report["xi"]) == 0.0
    assert report["variant"] == "plugin"
    assert report["n"] == "2"


def test_compute_simplified_monotone(tmp_path, capsys):
    n = 100
    xs = np.arange(1.0, n + 1.0)
    path = write_csv(tmp_path / "mono.csv", ["x", "y"], [xs, xs**2])
    code = main([
        "compute", "--file", path, "--x-col", "x", "--y-col", "y",
        "--variant", "simplified", "--h", "power:1",
    ])
    assert code == 0
    xi = float(parse_kv(capsys.readouterr().out)["xi"])
    assert xi == pytest.approx(1.0 - 3.0 * (n - 1) / n**2, abs=1e-12)


def test_compute_rejects_bad_gamma(tmp_path, capsys):
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [[1.0, 2.0], [0.2, 0.8]])
    code = main([
        "compute", "--file", path, "--x-col", "x", "--y-col", "y", "--h", "power:0",
    ])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_compute_missing_column_exit_2(tmp_path, capsys):
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [[1.0, 2.0], [0.2, 0.8]])
    code = main(["compute", "--file", path, "--x-col", "x", "--y-col", "z"])
    assert code == 2
    assert "'z'" in capsys.readouterr().err


def test_compute_degenerate_exit_3(tmp_path, capsys):
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
    code = main([
        "compute", "--file", path, "--x-col", "x", "--y-col", "y",
        "--variant", "plugin", "--f", "fit-normal",
    ])
    assert code == 3


def test_usage_error_exit_2(capsys):
    assert main(["compute"]) == 2


# ------------------------------------------------------------------- test

def test_test_dependent_column(tmp_path, capsys):
    xs = np.random.default_rng(0).random(1000)
    path = write_csv(tmp_path / "dep.csv", ["x", "y"], [xs, xs])
    code = main([
        "test", "--file", path, "--x-col", "x", "--y-col", "y",
        "--variant", "simplified", "--continuous-y",
    ])
    assert code == 0
    report = parse_kv(capsys.readouterr().out)
    assert float(report["p_one_sided"]) < 1e-6
    assert report["sigma2_source"] == "closed_form_power"


def test_test_small_n_exit_3(tmp_path, capsys):
    path = write_csv(tmp_path / "tiny.csv", ["x", "y"], [[1.0, 2.0], [3.0, 4.0]])
    code = main(["test", "--file", path, "--x-col", "x", "--y-col", "y"])
    assert code == 3
    assert "n >= 3" in capsys.readouterr().err


def test_null_p_values_look_uniform(tmp_path, capsys):
    # median of one-sided p over independent datasets should sit mid-range
    p_values = []
    for run in range(50):
        rng = np.random.default_rng(900 + run)
        path = write_csv(
            tmp_path / f"null_{run}.csv", ["x", "y"], [rng.random(500), rng.random(500)]
        )
        code = main([
            "test", "--file", path, "--x-col", "x", "--y-col", "y",
            "--variant", "simplified", "--continuous-y",
        ])
        assert code == 0
        p_values.append(float(parse_kv(capsys.readouterr().out)["p_one_sided"]))
    assert 0.25 <= float(np.median(p_values)) <= 0.75


# ------------------------------------------------------------------- rank

def test_rank_orders_series_by_dependence(tmp_path, capsys):
    rng = np.random.default_rng(31)
    x = np.linspace(-1.0, 1.0, 60)
    noise = rng.permutation(np.sin(7.0 * x) + rng.normal(0, 1, 60))
    path = write_csv(
        tmp_path / "series.csv",
        ["t", "s_linear", "s_quad", "s_noise"],
        [np.arange(1.0, 61.0), x, x**2, noise],
    )
    code = main(["rank", "--file", path, "--x-col", "t"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["name", "xi", "rank"]
    names = [r[0] for r in rows[1:]]
    assert set(names) == {"s_linear", "s_quad", "s_noise"}
    assert names[-1] == "s_noise"
    assert [r[2] for r in rows[1:]] == ["1", "2", "3"]


def test_rank_default_x_is_row_index(tmp_path, capsys):
    ys = np.linspace(0.0, 1.0, 40)
    path = write_csv(tmp_path / "one.csv", ["price"], [ys])
    code = main(["rank", "--file", path])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert len(rows) == 2
    assert rows[1][0] == "price"
    assert rows[1][2] == "1"
    assert float(rows[1][1]) > 0.9


def test_rank_degenerate_series_gets_nan_row(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = write_csv(
        tmp_path / "mix.csv",
        ["a", "flat", "b"],
        [rng.random(30), np.full(30, 2.0), rng.random(30)],
    )
    code = main(["rank", "--file", path, "--f", "fit-normal"])
    assert code == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.strip().splitlines()))
    assert len(rows) == 4
    flat_row = [r for r in rows[1:] if r[0] == "flat"][0]
    assert flat_row[1] == "nan"
    assert flat_row[2] == ""
    ranked = [r for r in rows[1:] if r[0] != "flat"]
    assert sorted(r[2] for r in ranked) == ["1", "2"]
    assert "1 degenerate series" in captured.err


# --------------------------------------------------------------- simulate

def test_simulate_noise_free_quadratic_cell(tmp_path, capsys):
    code = main([
        "simulate", "--model", "quadratic", "--sigma", "0", "--n", "500",
        "--reps", "20", "--method", "plugin,power:2,std-normal",
    ])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["method", "kernel", "sigma=0.0 n=500"]
    assert rows[1][0] == "plugin[F=std-normal]"
    assert rows[1][1] == "power:2"
    mean = float(rows[1][2].split()[0])
    assert mean == pytest.approx(1.0, abs=0.002)


def test_simulate_pure_noise_sinusoidal(tmp_path, capsys):
    code = main([
        "simulate", "--model", "sinusoidal", "--sigma", "inf", "--n", "2000",
        "--reps", "100", "--method", "simplified,power:3",
    ])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    mean = float(rows[1][2].split()[0])
    assert abs(mean) <= 0.01


def test_simulate_single_rep_blank_sd(capsys):
    code = main([
        "simulate", "--model", "linear", "--sigma", "0.1", "--n", "50",
        "--reps", "1", "--method", "pearson",
    ])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert "(" not in rows[1][2]


def test_simulate_invalid_model_exit_2(capsys):
    code = main([
        "simulate", "--model", "cubic", "--method", "pearson",
    ])
    assert code == 2


def test_simulate_dump_round_trip(tmp_path, capsys):
    # coefficients stored in the manifest must be reproduced bit-for-bit
    # by cmd_compute on the dumped per-rep files, also after a rerun with
    # another model and seed into the same directory
    dump = tmp_path / "dump"
    out = tmp_path / "table.csv"
    runs = [
        ("linear", "0", ["simplified,power:1"]),
        ("quadratic", "5", ["simplified,power:1", "rank,power:2"]),
    ]
    for model, seed, methods in runs:
        code = main([
            "simulate", "--model", model, "--sigma", "0.1", "--n", "50",
            "--reps", "2", "--seed", seed, "--out", str(out), "--dump-dir", str(dump),
            *[arg for method in methods for arg in ("--method", method)],
        ])
        assert code == 0
        with open(dump / "reps.csv", newline="") as fh:
            manifest = list(csv.DictReader(fh))
        assert len(manifest) == 2 * len(methods)
        for row in manifest:
            code = main([
                "compute", "--file", str(dump / row["file"]),
                "--x-col", "x", "--y-col", "y",
                "--variant", row["method"], "--h", row["kernel"],
                "--seed", row["seed"],
            ])
            assert code == 0
            xi = float(parse_kv(capsys.readouterr().out)["xi"])
            assert xi == float(row["value"])
