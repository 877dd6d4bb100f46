import ast
import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xifamily
from xifamily import cli, simulate
from xifamily.cli import CsvTable, load_csv, main


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


def test_parser_built_once_gives_fresh_output(tmp_path, capsys):
    # main reuses one parser; an append option given twice and a store_true
    # flag followed by a call without it must leave nothing for the next call
    xs = np.random.default_rng(3).random(300)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [xs, xs + np.random.default_rng(4).random(300)])
    simulate = ["simulate", "--model", "linear", "--sigma", "0.5", "--n", "40", "--reps", "3"]
    test = ["test", "--file", path, "--x-col", "x", "--y-col", "y", "--variant", "rank"]
    calls = [
        simulate + ["--method", "rank,power:1", "--method", "simplified,power:2"],
        simulate + ["--method", "chatterjee"],
        test + ["--continuous-y"],
        test,
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert cli.build_parser() is cli.build_parser()
    assert [run(argv) for argv in calls] == fresh
    assert fresh[0][1].count("\n") == 3 and fresh[1][1].count("\n") == 2
    assert "closed_form_power" in fresh[2][1] and "ustat_rank" in fresh[3][1]


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


def load_csv_cells_oracle(path) -> CsvTable:
    """The cell loop ``load_csv`` ran before numpy parsed the rows, kept verbatim."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    headers = [h.strip() for h in rows[0]]
    width = len(headers)
    data = [[] for _ in headers]
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {r}, column {headers[c]!r}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite cell at row {r}, column {headers[c]!r}: {cell!r}"
                )
            data[c].append(value)
    columns = {h: np.asarray(col, dtype=float) for h, col in zip(headers, data)}
    return CsvTable(headers=headers, columns=columns, n_rows=len(rows) - 1)


def load_outcome(loader, path):
    """A table as headers, row count and column bytes, or the error text."""
    try:
        table = loader(path)
    except ValueError as exc:
        return ("error", str(exc))
    columns = [
        (name, col.dtype.str, col.shape, col.tobytes()) for name, col in table.columns.items()
    ]
    return ("table", table.headers, table.n_rows, columns)


def assert_loads_like_oracle(path):
    assert load_outcome(load_csv, path) == load_outcome(load_csv_cells_oracle, path)


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.25g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.3e}"),
    st.integers(-10**30, 10**30).map(str),
    st.tuples(st.integers(0, 10**20), st.integers(-320, 308)).map(lambda t: f"{t[0]}e{t[1]}"),
    st.sampled_from(
        ["-0.0", "0", "+1.5", ".5", "5.", "1e-400", "0.1000000000000000055511151231257827"]
    ),
)
ODD_CELLS = st.one_of(
    NUMERIC_CELLS.map(lambda c: f" {c}\t"),
    NUMERIC_CELLS.map(lambda c: f'"{c}"'),
    st.sampled_from(["1_0", "", "nan", "inf", "-inf", "1e400", "oops", "\u0661\u0662", " "]),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 3))
    headers = [draw(st.sampled_from([f"c{c}", f" c{c} ", f'"c{c}"'])) for c in range(width)]
    clean = draw(st.booleans())
    cell = NUMERIC_CELLS if clean else st.one_of(NUMERIC_CELLS, ODD_CELLS)
    lines = [",".join(headers)]
    for _ in range(draw(st.integers(0, 6))):
        kind = "row" if clean else draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append("")
        else:
            cells = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(",".join(draw(cell) for _ in range(max(cells, 0))))
    end = draw(LINE_ENDS)
    text = end.join(lines)
    if draw(st.booleans()):
        text += end
    if not clean and draw(st.booleans()):
        text += end  # a trailing blank line
    return text


@given(csv_texts())
@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_load_csv_equals_cell_loop_oracle(tmp_path, text):
    assert_loads_like_oracle(write_text(tmp_path / "gen.csv", text))


@pytest.mark.parametrize("text", [
    "x,y\n1,2\n\n3,4\n",        # blank line in the middle
    "x,y\n1,2\n3,4\n\n",        # trailing blank line
    "x,y\r\n1,2\r\n\r\n3,4\r\n",  # blank line, CRLF
    "x,y\n1,2\n3\n",           # ragged row
    "x,y\n1,2,3\n",             # ragged row, one cell too many
    "x,y\n1,nan\n",
    "x,y\n1,inf\n",
    "x,y\n1,-inf\n",
    "x,y\n1,1e400\n",
    "x,y\n",                     # header only
    "x,y",                        # header only, no line end
    "",                           # empty file
    "x,y\n1,2\n",               # a single row
    "x\n7\n",                   # a single cell
    "x,y\r\n1,2\r\n3,4\r\n",
    "x,y\r1,2\r3,4\r",
    "x,y\n\"1\",2\n",
    "x,y\n1_0,2\n",
    "x,y\n\u0661,2\n",
    "x,y\n 1 ,\t2\n",
    "x,y\n1,\n",
    "x,y\n  \n",
    "x\n1\n\n",
])
def test_load_csv_known_cases_equal_oracle(tmp_path, text):
    assert_loads_like_oracle(write_text(tmp_path / "case.csv", text))


def test_load_csv_parses_clean_file_without_cell_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    path = write_csv(tmp_path / "clean.csv", ["a", "b"], [rng.normal(size=50), rng.random(50)])
    expected = load_outcome(load_csv_cells_oracle, path)

    def refuse(path):
        raise AssertionError("the cell loop ran on a clean file")

    monkeypatch.setattr(cli, "_load_csv_cells", refuse)
    assert load_outcome(load_csv, path) == expected


def test_load_csv_header_only_is_silent(tmp_path):
    path = write_text(tmp_path / "header.csv", "x,y\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_csv(path)
    assert table.headers == ["x", "y"]
    assert table.n_rows == 0


def test_load_csv_drops_utf8_bom(tmp_path, capsys):
    rows = "x,y\n1,0.5\n2,0.25\n3,0.75\n"
    plain = write_text(tmp_path / "plain.csv", rows)
    bom = tmp_path / "bom.csv"
    bom.write_text(rows, encoding="utf-8-sig")
    assert load_csv(bom).headers == ["x", "y"]
    assert load_outcome(load_csv, bom) == load_outcome(load_csv, plain)
    outputs = []
    for path in (plain, bom):
        code = main(["compute", "--file", str(path), "--x-col", "x", "--y-col", "y"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_load_csv_refuses_duplicate_column_names(tmp_path, capsys):
    path = write_text(tmp_path / "dup.csv", "a,a,b\n1,5,2\n2,6,1\n3,7,3\n")
    with pytest.raises(ValueError, match="duplicate column name 'a'"):
        load_csv(path)
    assert main(["rank", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: duplicate column name 'a'\n"


def test_rank_refuses_duplicate_y_col(tmp_path, capsys):
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [[1.0, 2.0, 3.0], [0.2, 0.8, 0.5]])
    code = main(["rank", "--file", path, "--x-col", "x", "--y-col", "y,y"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --y-col: duplicate column name 'y'\n"


FIELD_LIMIT = csv.field_size_limit()
LONG_CELL = "0" * (FIELD_LIMIT + 1)


@pytest.mark.parametrize("text, message", [
    ("", "{path}: empty file"),
    ("x,y\n1,2\n3\n", "{path}: row 3 has 1 cells, expected 2"),
    ("x,y\n1,2\n\n", "{path}: row 3 has 0 cells, expected 2"),
    ("x,y\n1,2\n3,oops\n", "{path}: non-numeric cell at row 3, column 'y': 'oops'"),
    ("x,y\n1,2\n1e400,4\n", "{path}: non-finite cell at row 3, column 'x': '1e400'"),
    # the csv module refuses a cell past its field size limit: numpy reads the
    # long cell, so a bad row after it sends the file to the cell loop
    pytest.param(
        f"x,y\n1,{LONG_CELL}\n3,oops\n",
        f"{{path}}: row 2: field larger than field limit ({FIELD_LIMIT})",
        id="long-cell",
    ),
    pytest.param(
        f"x,{LONG_CELL}\n1,2\n",
        f"{{path}}: row 1: field larger than field limit ({FIELD_LIMIT})",
        id="long-header",
    ),
])
def test_load_errors_exit_2_with_one_line(tmp_path, capsys, text, message):
    path = write_text(tmp_path / "err.csv", text)
    code = main(["compute", "--file", str(path), "--x-col", "x", "--y-col", "y"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=path) + "\n"


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


@pytest.mark.parametrize("option, spec", [
    ("--h", "power"),
    ("--h", "expsq:1"),
    ("--h", "power:x"),
    ("--f", "uniform:0"),
    ("--f", "fit-normal:1"),
    ("--method", "plugin,power:1"),
])
def test_malformed_spec_exits_2_with_one_line_naming_it(tmp_path, capsys, option, spec):
    if option == "--method":
        argv = ["simulate", "--model", "linear", "--n", "20", "--reps", "2"]
    else:
        path = write_csv(tmp_path / "d.csv", ["x", "y"], [[1.0, 2.0, 3.0], [0.2, 0.8, 0.5]])
        argv = ["compute", "--file", path, "--x-col", "x", "--y-col", "y"]
    assert main(argv + [option, spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(spec) in captured.err


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


@pytest.mark.parametrize("xs", [[1.0, 2.0, 3.0], [1.0, 1.0, 3.0]], ids=["distinct-x", "tied-x"])
def test_negative_seed_exits_2_whatever_the_file(tmp_path, capsys, xs):
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [xs, [0.5, 0.1, 0.9]])
    code = main(["compute", "--file", path, "--x-col", "x", "--y-col", "y", "--seed", "-1"])
    assert code == 2
    assert "tie_seed must be a non-negative integer" in capsys.readouterr().err


def test_every_kernel_parameter_exits_with_a_documented_code(tmp_path, capsys):
    # exp:1e-308 raised ZeroDivisionError and exp:1e300 OverflowError out of
    # main; rank --continuous-y with power:151 was a usage error
    rng = np.random.default_rng(3)
    xs = rng.random(40)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [xs, xs + rng.standard_normal(40)])
    base = ["--file", path, "--x-col", "x", "--y-col", "y"]
    values = [f"1e{e}" for e in range(-308, 309, 28)] + ["1e-7", "151"]
    codes = {}
    for spec in [f"{kind}:{value}" for kind in ("exp", "power") for value in values]:
        for variant in ("plugin", "rank", "simplified"):
            for command in (["compute"], ["test"], ["test", "--continuous-y"]):
                # the suite turns any warning into an error
                codes[" ".join(command), spec, variant] = main(
                    command + base + ["--h", spec, "--variant", variant]
                )
    capsys.readouterr()
    assert set(codes.values()) <= {0, 2, 3, 4}
    assert codes["test --continuous-y", "power:151", "rank"] == 0
    assert codes["compute", "exp:1e-7", "simplified"] == 0


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


def test_test_simplified_tied_y_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(5)
    levels = rng.integers(0, 5, 200).astype(float)
    path = write_csv(tmp_path / "levels.csv", ["x", "y"], [rng.random(200), levels])
    code = main([
        "test", "--file", path, "--x-col", "x", "--y-col", "y", "--variant", "simplified",
    ])
    assert code == 3
    assert "rank" in capsys.readouterr().err


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
    check_flat_series_gets_nan_row(tmp_path, capsys, ["--f", "fit-normal"])


def test_rank_chatterjee_constant_series_gets_nan_row(tmp_path, capsys):
    # Chatterjee's xi is undefined on a constant y, not 1
    check_flat_series_gets_nan_row(tmp_path, capsys, ["--variant", "chatterjee"])


def test_rank_chatterjee_scores_every_series_on_tied_x(tmp_path, capsys):
    # tied x take the seeded shuffle, so each series scores as compute scores it
    rng = np.random.default_rng(6)
    x = rng.integers(0, 5, 30).astype(float)
    columns = [x, x + rng.random(30), rng.random(30).round(1), np.full(30, 2.0)]
    path = write_csv(tmp_path / "tied.csv", ["x", "a", "b", "flat"], columns)
    expected = {}
    for name in ("a", "b"):
        assert main(["compute", "--file", path, "--x-col", "x", "--y-col", name,
                     "--variant", "chatterjee", "--seed", "4"]) == 0
        expected[name] = parse_kv(capsys.readouterr().out)["xi"]
    assert main(["rank", "--file", path, "--x-col", "x", "--variant", "chatterjee",
                 "--seed", "4"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert {r[0]: r[1] for r in rows[1:]} == {**expected, "flat": "nan"}
    assert [r[2] for r in rows[1:]] == ["1", "2", ""]


@pytest.mark.parametrize(
    "method",
    [["--variant", "rank"], ["--variant", "simplified"], ["--variant", "plugin", "--f", "std-normal"]],
)
def test_rank_constant_series_gets_nan_row_under_fixed_maps(tmp_path, capsys, method):
    # with F fixed, the kernel sums of a flat series vanish and the library
    # sets xi = 1, which must not top the ranking
    check_flat_series_gets_nan_row(tmp_path, capsys, method)


def test_rank_lists_a_series_its_map_merges_as_nan(tmp_path, capsys):
    # std-normal sends every value of the first series to 1.0, which would
    # give it xi = 1 and the top of the ranking
    rng = np.random.default_rng(33)
    x = np.linspace(-1.0, 1.0, 200)
    path = write_csv(
        tmp_path / "merged.csv",
        ["t", "saturated", "quad", "noise"],
        [x, 9.0 + 0.01 * rng.normal(size=200), x**2, rng.normal(size=200)],
    )
    code = main(["rank", "--file", path, "--x-col", "t", "--f", "std-normal"])
    assert code == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.strip().splitlines()))
    assert [r[0] for r in rows[1:]] == ["quad", "noise", "saturated"]
    assert rows[-1] == ["saturated", "nan", ""]
    assert "1 degenerate series" in captured.err


def check_flat_series_gets_nan_row(tmp_path, capsys, method):
    rng = np.random.default_rng(5)
    path = write_csv(
        tmp_path / "mix.csv",
        ["a", "flat", "b"],
        [rng.random(30), np.full(30, 2.0), rng.random(30)],
    )
    code = main(["rank", "--file", path, *method])
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


def test_simulate_reads_map_parameters_in_a_method_spec(capsys):
    # the F of a method spec keeps its commas; fit-normal:0,1 is the
    # standard normal, so its cells equal std-normal's
    code = main([
        "simulate", "--model", "linear", "--n", "20", "--reps", "2",
        "--method", "plugin,power:1,uniform:-3,3",
        "--method", "plugin,power:1,fit-normal:0,1",
        "--method", "plugin,power:1,std-normal",
    ])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert [row[0] for row in rows[1:]] == [
        "plugin[F=uniform:-3,3]", "plugin[F=fit-normal:0,1]", "plugin[F=std-normal]",
    ]
    assert rows[2][2:] == rows[3][2:]


@pytest.mark.parametrize("f_spec", ["uniform:0", "uniform:3,1", "normal"])
def test_simulate_refuses_a_bad_f_before_writing_a_sample(tmp_path, capsys, f_spec):
    # the F of every method is checked before the dump directory is made
    dump = tmp_path / "dump"
    code = main([
        "simulate", "--model", "linear", "--n", "20", "--reps", "3",
        "--method", "simplified,power:1", "--method", f"plugin,power:1,{f_spec}",
        "--dump-dir", str(dump),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not dump.exists()


def test_simulate_dump_round_trip(tmp_path, capsys):
    # coefficients stored in the manifest must be reproduced bit-for-bit
    # by cmd_compute on the dumped per-rep files, also after a rerun with
    # another model and seed into the same directory; a kernel label keeps
    # every digit of its parameter, and a plugin row names its F in brackets
    dump = tmp_path / "dump"
    out = tmp_path / "table.csv"
    runs = [
        ("linear", "0", ["simplified,power:1"]),
        ("quadratic", "5", ["simplified,power:1", "rank,power:2", "simplified,power:1.23456789",
                            "plugin,exp:0.3,uniform:-3,3"]),
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
            variant, _, dist = row["method"].partition("[F=")
            code = main([
                "compute", "--file", str(dump / row["file"]),
                "--x-col", "x", "--y-col", "y",
                "--variant", variant, "--h", row["kernel"],
                "--seed", row["seed"], *(["--f", dist[:-1]] if dist else []),
            ])
            assert code == 0
            xi = float(parse_kv(capsys.readouterr().out)["xi"])
            assert xi == float(row["value"])


def test_simulate_draws_each_repetition_once(tmp_path, monkeypatch):
    # three methods and the dumped samples read one draw of each repetition
    draws = []
    generate = simulate.generate
    monkeypatch.setattr(simulate, "generate", lambda spec: draws.append(spec) or generate(spec))
    code = main([
        "simulate", "--model", "linear", "--sigma", "0,inf", "--n", "20,30", "--reps", "5",
        "--method", "pearson", "--method", "spearman", "--method", "simplified,power:1",
        "--dump-dir", str(tmp_path),
    ])
    assert code == 0
    assert len(draws) == len(set(draws)) == 2 * 2 * 5
    assert len(list(tmp_path.glob("sample_*.csv"))) == 2 * 2 * 5


def test_import_does_not_load_scipy_special():
    # scipy.special alone would double a process's memory
    env = dict(os.environ)
    src = str(Path(xifamily.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, xifamily, xifamily.cli; print('scipy.special' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_normal_maps_run_without_scipy(tmp_path):
    # std-normal (compute, test) and fit-normal (rank's default) are numpy only
    rng = np.random.default_rng(5)
    xs = rng.random(40)
    path = write_csv(tmp_path / "d.csv", ["x", "y", "z"], [xs, xs + rng.normal(size=40), rng.normal(size=40)])
    cols = ["--file", path, "--x-col", "x"]
    env = dict(os.environ)
    src = str(Path(xifamily.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; from xifamily.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'scipy' in sys.modules)"
    )
    for argv in (
        ["compute", *cols, "--y-col", "y", "--f", "std-normal"],
        ["rank", *cols],
        ["test", *cols, "--y-col", "y", "--variant", "plugin"],
    ):
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False", argv


def test_package_source_imports_no_scipy():
    # the runtime needs numpy only; tests and scripts may use scipy
    package = Path(xifamily.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert len(list(package.glob("*.py"))) >= 9
    assert found == []


def test_python_m_xifamily_runs_the_cli(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], [rng.random(30), rng.random(30)])
    argv = ["compute", "--file", path, "--x-col", "x", "--y-col", "y", "--variant", "rank"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ)
    src = str(Path(xifamily.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for module in ("xifamily", "xifamily.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected, module
