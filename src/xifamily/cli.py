"""Command-line interface: compute | test | rank | simulate.

Exit codes: 0 ok, 2 usage or parse error, 3 degenerate data, 4 numeric
failure. All randomness flows from --seed (default 0), so output is
deterministic given the flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cdf import resolve_dist_spec
from .errors import DegenerateDataError, NumericError, QuadratureError
from .estimator import VARIANTS, PairedSample, coefficient
from .inference import independence_test
from .kernels import parse_kernel_spec
from .simulate import (
    ModelSpec,
    _replicate_cell,
    format_cell,
    parse_method_spec,
    parse_sigma,
    rep_seed,
)

__all__ = ["CsvTable", "load_csv", "main", "run"]


@dataclass(frozen=True)
class CsvTable:
    headers: list
    columns: dict
    n_rows: int


def load_csv(path) -> CsvTable:
    """Read a numeric CSV: a header row, then a rectangular table.

    The contract: the first row names the columns, each name stripped of
    surrounding space; a UTF-8 byte-order mark before it is dropped and a
    repeated name is refused. Every later row has one cell per name, and
    every cell is a finite number as Python's ``float`` reads it. A blank
    line is a row of no cells, so it is refused too, and so is a row the
    ``csv`` module cannot read, such as a cell past its field size limit.

    numpy parses the data rows in one pass. Its result is kept only when it
    has one row per line, one column per name and finite values alone.
    Anything else, from a blank line or ragged row to a quoted cell, ``1_0``
    or non-ASCII digits, goes to the cell loop: the only code that words an
    error, and the only one that reads the cells numpy refuses.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error:
            header = None  # the cell loop words it
        if header is not None:
            headers = _headers(path, header)
            values = _numeric_rows(fh, len(headers))
            if values is not None:
                columns = dict(zip(headers, values.T.copy()))
                return CsvTable(headers=headers, columns=columns, n_rows=len(values))
    return _load_csv_cells(path)


def _numeric_rows(fh, width):
    """The rest of ``fh`` as a (lines, width) array of finite floats, else None."""
    lines = fh.readlines()
    try:
        with warnings.catch_warnings():
            # numpy warns when no row follows the header
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape != (len(lines), width) or not np.isfinite(values).all():
        return None
    return values


def _headers(path, row) -> list:
    headers = [h.strip() for h in row]
    _refuse_duplicates(headers, str(path))
    return headers


def _refuse_duplicates(names, where):
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{where}: duplicate column name {name!r}")
        seen.add(name)


def _load_csv_cells(path) -> CsvTable:
    """``load_csv`` one cell at a time with Python ``float``, naming the first bad cell."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for row in csv.reader(fh):
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    headers = _headers(path, rows[0])
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


def _column(table: CsvTable, name: str) -> np.ndarray:
    if name not in table.columns:
        raise ValueError(f"column {name!r} not found; available: {', '.join(table.headers)}")
    return table.columns[name]


@contextlib.contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _dist(args, sample):
    """The map F from --f; only the plugin variant reads it."""
    return resolve_dist_spec(args.f, sample.ys) if args.variant == "plugin" else None


def cmd_compute(args) -> int:
    table = load_csv(args.file)
    sample = PairedSample(xs=_column(table, args.x_col), ys=_column(table, args.y_col))
    kernel = parse_kernel_spec(args.h)
    result = coefficient(sample, args.variant, kernel, _dist(args, sample), args.seed)
    with _open_out(args.out) as out:
        print(f"xi={result.xi!r}", file=out)
        print(f"zeta={result.zeta!r}", file=out)
        print(f"normalization={result.normalization!r}", file=out)
        print(f"variant={result.variant}", file=out)
        print(f"n={result.n}", file=out)
        print(f"tie_seed={result.tie_seed}", file=out)
    return 0


def cmd_test(args) -> int:
    table = load_csv(args.file)
    sample = PairedSample(xs=_column(table, args.x_col), ys=_column(table, args.y_col))
    kernel = parse_kernel_spec(args.h)
    result = independence_test(
        sample,
        kernel,
        variant=args.variant,
        dist=_dist(args, sample),
        tie_seed=args.seed,
        continuous_y=args.continuous_y,
    )
    with _open_out(args.out) as out:
        print(f"z={result.z!r}", file=out)
        print(f"sigma2={result.sigma2_used.sigma2!r}", file=out)
        print(f"sigma2_source={result.sigma2_used.source}", file=out)
        print(f"p_one_sided={result.p_one_sided!r}", file=out)
        print(f"p_two_sided={result.p_two_sided!r}", file=out)
        print(f"variant={result.variant}", file=out)
        print(f"n={sample.n}", file=out)
    return 0


def cmd_rank(args) -> int:
    table = load_csv(args.file)
    if args.x_col is not None:
        xs = _column(table, args.x_col)
    else:
        xs = np.arange(1, table.n_rows + 1, dtype=float)
    if args.y_col is not None:
        names = [c.strip() for c in args.y_col.split(",")]
        _refuse_duplicates(names, "--y-col")
        for name in names:
            _column(table, name)
    else:
        names = [h for h in table.headers if h != args.x_col]
    if not names:
        raise ValueError("no series to rank")
    kernel = parse_kernel_spec(args.h)

    scored = []
    degenerate = []
    for name in names:
        sample = PairedSample(xs=xs, ys=table.columns[name])
        if sample.ys.min() == sample.ys.max():
            # no dependence to rank, though a fixed F would give it xi = 1
            degenerate.append(name)
            continue
        try:
            value = coefficient(sample, args.variant, kernel, _dist(args, sample), args.seed).xi
        except DegenerateDataError:
            if args.variant == "chatterjee":
                # constant y are set aside above: the refusal is of tied x, for every series
                raise
            degenerate.append(name)
            continue
        scored.append((name, value))
    # descending by coefficient, ties broken by name for determinism
    scored.sort(key=lambda item: (-item[1], item[0]))
    with _open_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["name", "xi", "rank"])
        for position, (name, value) in enumerate(scored, start=1):
            writer.writerow([name, repr(value), position])
        for name in sorted(degenerate):
            writer.writerow([name, "nan", ""])
    if degenerate:
        print(f"warning: {len(degenerate)} degenerate series reported as NaN", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    sigmas = [parse_sigma(s) for s in args.sigma.split(",")]
    sizes = [int(n) for n in args.n.split(",")]
    methods = [parse_method_spec(m) for m in args.method]
    dump_dir = Path(args.dump_dir) if args.dump_dir else None
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)

    col_keys = [(s, n) for s in sigmas for n in sizes]
    cells = {}  # one pass per cell: every method and the dump read one draw of each rep
    for sigma, n in col_keys:
        spec = ModelSpec(model=args.model, sigma=sigma, n=n, seed=0)
        dump = None if dump_dir is None else functools.partial(_dump_sample, dump_dir, sigma, n)
        cells[sigma, n] = _replicate_cell(spec, methods, args.reps, args.seed, True, dump)

    with _open_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["method", "kernel"] + [f"sigma={s} n={n}" for s, n in col_keys])
        for k, method in enumerate(methods):
            row = [format_cell(cells[c][k]) for c in col_keys]
            writer.writerow(list(method.row_label()) + row)

    if dump_dir is not None:
        with open(dump_dir / "reps.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "kernel", "sigma", "n", "rep", "seed", "file", "value"])
            writer.writerows(
                [*method.row_label(), sigma, n, i, rep_seed(args.seed, i),
                 _sample_name(sigma, n, i), repr(value)]
                for k, method in enumerate(methods)
                for sigma, n in col_keys
                for i, value in enumerate(cells[sigma, n][k].per_rep)
            )
    return 0


def _sample_name(sigma, n, rep):
    return f"sample_s{sigma}_n{n}_rep{rep}.csv"


def _dump_sample(dump_dir, sigma, n, rep, sample):
    """Write one repetition's sample, replacing any a previous run left."""
    with open(dump_dir / _sample_name(sigma, n, rep), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in zip(sample.xs, sample.ys):
            writer.writerow([repr(float(x)), repr(float(y))])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="xifamily",
        description="Kernel-generalized rank correlation coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, f_default="std-normal"):
        p.add_argument("--file", required=True, help="input CSV with a header row")
        p.add_argument("--h", default="power:1", help="kernel spec: power:G | exp:B | expsq")
        p.add_argument("--f", default=f_default,
                       help="F spec: std-normal | fit-normal[:MU,SIGMA] | empirical | uniform:A,B")
        p.add_argument("--variant", default="plugin", choices=VARIANTS)
        p.add_argument("--seed", type=int, default=0, help="tie-break seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("compute", help="one coefficient from two CSV columns")
    add_shared(p)
    p.add_argument("--x-col", required=True)
    p.add_argument("--y-col", required=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("test", help="independence test from two CSV columns")
    add_shared(p)
    p.add_argument("--x-col", required=True)
    p.add_argument("--y-col", required=True)
    p.add_argument("--continuous-y", action="store_true",
                   help="declare y continuous: closed-form null variance when y has no ties")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("rank", help="rank many series by dependence on x")
    add_shared(p, f_default="fit-normal")
    p.add_argument("--x-col", default=None, help="default: row index 1..n")
    p.add_argument("--y-col", default=None,
                   help="comma-separated series names (default: all other columns)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", help="replicate a synthetic model and emit a table cell")
    p.add_argument("--model", required=True, choices=["linear", "quadratic", "sinusoidal"])
    p.add_argument("--sigma", default="0", help="comma-separated noise levels; 'inf' = pure noise")
    p.add_argument("--n", default="100", help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--method", action="append", required=True,
                   help="VARIANT[,KERNEL[,F]], e.g. plugin,power:2,std-normal (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-dir", default=None,
                   help="also write per-rep samples and a manifest of stored coefficients")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
