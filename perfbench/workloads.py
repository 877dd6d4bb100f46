"""The three workloads: inputs from a seed, the op each one runs, its check.

Every workload is a fixed cycle of ops whose structure (sizes, methods,
which series are constant or discrete) does not depend on the seed; the
seed draws the data and the order of the cycle. Work counts per op are
therefore the same for every seed, while the timed loop, which can stop
part-way through a cycle, sees a representative mix of ops.

An op's output is a tuple of plain Python values. ``check`` compares it
with ``reference.py`` and returns "ok", "refused" (an allowed
``XiFamilyError``) or "failed".
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

OK, REFUSED, FAILED = "ok", "refused", "failed"


@dataclass
class Op:
    setting: str  # method/kernel/F label, for the share of ops per setting
    n: int
    pairs_needed: int  # distinct plus consecutive pairs the op needs h on
    args: dict = field(default_factory=dict)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2 + (n - 1)


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _shuffled(ops: list, seed: int) -> list:
    order = _rng(seed, 999).permutation(len(ops))
    return [ops[i] for i in order]


def attempt(call, xf):
    """Run one op; an XiFamilyError is a refusal, anything else an error."""
    try:
        return call()
    except xf.XiFamilyError as exc:
        return ("refused", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - every other exception is a failed op
        return ("error", type(exc).__name__, str(exc))


def _raised(output) -> str | None:
    if output and output[0] in ("refused", "error"):
        return output[0]
    return None


def _series_props(ys_list) -> dict:
    return {
        "series": len(ys_list),
        "tied": sum(ref.has_ties(y) for y in ys_list),
        "constant": sum(ref.is_constant(y) for y in ys_list),
    }


# -------------------------------------------------------------------- screen
#
# `xifamily rank` on 1000-row CSVs of four series, x = row index. The
# all-pairs chi sum is nearly all of each op today; load_csv is next.

SCREEN_FILES = 4
SCREEN_ROWS = 1000
SCREEN_SETTINGS = [
    ("plugin", "power:1", "fit-normal"),  # the CLI default
    ("rank", "power:3", None),
    ("plugin", "exp:1", "std-normal"),
    ("rank", "expsq", None),
]


def _screen_file(seed: int, j: int, path: Path) -> dict:
    rng = _rng(seed, j)
    n = SCREEN_ROWS
    t = np.arange(1, n + 1) / n
    noise = [0.1, 0.3, 0.5, 1.0][j]
    series = {
        "quad": 4.0 * (t - 0.5) ** 2 + noise * rng.standard_normal(n),
        "sine": np.sin(2.0 * np.pi * (j + 1) * t) + noise * rng.standard_normal(n),
        "noise": rng.standard_normal(n),
        "level5": rng.integers(0, 5, n).astype(float),
    }
    if j % 2:
        # a flat series: refused under fit-normal, xi = 1 under fixed maps
        del series["noise"]
        series["flat"] = np.full(n, 2.5)
    names = list(series)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*series.values()):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return series


def build_screen(seed: int, workdir: Path) -> list:
    ops = []
    for j in range(SCREEN_FILES):
        path = workdir / f"screen_{j}.csv"
        series = _screen_file(seed, j, path)
        for variant, spec, f_spec in SCREEN_SETTINGS:
            argv = ["rank", "--file", str(path), "--variant", variant, "--h", spec]
            if f_spec:
                argv += ["--f", f_spec]
            needed = sum(
                0 if f_spec == "fit-normal" and ref.is_constant(y) else _pairs(SCREEN_ROWS)
                for y in series.values()
            )
            ops.append(Op(
                setting=" ".join(s for s in (variant, spec, f_spec) if s),
                n=SCREEN_ROWS,
                pairs_needed=needed,
                args={"argv": argv, "series": series, "variant": variant, "spec": spec,
                      "f": f_spec, "props": _series_props(list(series.values()))},
            ))
    return _shuffled(ops, seed)


def bind_screen(op: Op, xf):
    argv = op.args["argv"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = xf.cli.main(argv)
        return (code, out.getvalue())

    return call


def reference_screen(op: Op) -> dict:
    a = op.args
    xs = np.arange(1, SCREEN_ROWS + 1, dtype=float)
    values = {}
    for name, ys in a["series"].items():
        if ref.is_constant(ys) and a["f"] == "fit-normal":
            values[name] = None  # no scale to fit: only a refusal is right
        else:
            values[name] = ref.coefficient(xs, ys, a["variant"], a["spec"], a["f"], 0)
    return {"xi": values, "props": a["props"]}


def check_screen(op: Op, output, expected) -> str:
    if _raised(output) or output[0] != 0:
        return FAILED
    rows = list(csv.reader(io.StringIO(output[1])))
    if not rows or rows[0] != ["name", "xi", "rank"]:
        return FAILED
    want = expected["xi"]
    if sorted(r[0] for r in rows[1:]) != sorted(want):
        return FAILED
    scored = [r for r in rows[1:] if r[2] != ""]
    refused = [r for r in rows[1:] if r[2] == ""]
    if any(r[1] != "nan" or not ref.is_constant(op.args["series"][r[0]]) for r in refused):
        return FAILED
    previous = None
    for position, (name, text, rank) in enumerate(scored, start=1):
        value = float(text)
        if want[name] is None or not abs(value - want[name]) <= ref.XI_ABS_TOL or rank != str(position):
            return FAILED
        if previous is not None and (value > previous[0] or want[name] > previous[1] + ref.XI_ABS_TOL):
            return FAILED
        previous = (value, want[name])
    return REFUSED if refused else OK


def perturb_screen(output):
    rows = list(csv.reader(io.StringIO(output[1])))
    rows[1][1] = repr(float(rows[1][1]) + ref.PERTURBATION)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return (output[0], buf.getvalue())


# --------------------------------------------------------------------- table
#
# Table 2's O(n log n) rows: one replicate() cell of 25 reps per op. No op
# touches the all-pairs sum.

TABLE_REPS = 25
TABLE_METHODS = [
    "simplified,power:1", "simplified,power:2", "simplified,power:3",
    "simplified,expsq", "simplified,exp:1", "chatterjee", "pearson", "spearman",
]
TABLE_MODELS = ["quadratic", "sinusoidal"]
TABLE_SIGMAS = [0.0, 0.1, 0.5, "inf"]
TABLE_SIZES = [100, 500, 2000]


def build_table(seed: int, workdir: Path) -> list:
    ops = []
    for method in TABLE_METHODS:
        for model in TABLE_MODELS:
            for sigma in TABLE_SIGMAS:
                for n in TABLE_SIZES:
                    base_seed = int(_rng(seed, len(ops)).integers(2**31))
                    variant, _, spec = method.partition(",")
                    ops.append(Op(
                        setting=method.replace(",", " "),
                        n=n,
                        pairs_needed=TABLE_REPS * (n - 1) if variant == "simplified" else 0,
                        args={"method": method, "variant": variant, "spec": spec or None,
                              "model": model, "sigma": sigma, "base_seed": base_seed},
                    ))
    return _shuffled(ops, seed)


def bind_table(op: Op, xf):
    a = op.args
    config = xf.simulate.parse_method_spec(a["method"])
    model = xf.simulate.ModelSpec(model=a["model"], sigma=a["sigma"], n=op.n, seed=0)

    def call():
        s = xf.simulate.replicate(model, config, TABLE_REPS, a["base_seed"], keep_per_rep=True)
        return (s.mean, s.sd, s.per_rep)

    return call


def reference_table(op: Op) -> dict:
    a = op.args
    values, samples = [], []
    for i in range(TABLE_REPS):
        seed = ref.rep_seed(a["base_seed"], i)
        xs, ys = ref.generate(a["model"], a["sigma"], op.n, seed)
        samples.append(ys)
        values.append(ref.coefficient(xs, ys, a["variant"], a["spec"], None, seed))
    props = _series_props(samples)
    may_refuse = props["constant"] > 0 or (a["variant"] == "simplified" and props["tied"] > 0)
    return {"per_rep": values, "mean": float(np.mean(values)),
            "sd": float(np.std(values, ddof=1)), "may_refuse": may_refuse, "props": props}


def check_table(op: Op, output, expected) -> str:
    raised = _raised(output)
    if raised:
        return REFUSED if raised == "refused" and expected["may_refuse"] else FAILED
    mean, sd, per_rep = output
    close = [abs(mean - expected["mean"]), abs(sd - expected["sd"])]
    close += [abs(v - w) for v, w in zip(per_rep, expected["per_rep"])]
    if len(per_rep) != TABLE_REPS or not all(c <= ref.XI_ABS_TOL for c in close):
        return FAILED
    return OK


def perturb_table(output):
    return (output[0] + ref.PERTURBATION,) + output[1:]


# ---------------------------------------------------------------------- test
#
# Independence tests: three quarters at n=1000 with the O(n^2) U-statistic
# variance, one quarter at n=100000 with the closed-form variance.

TEST_SMALL = 1000
TEST_LARGE = 100_000
TEST_SMALL_METHODS = [("rank", "exp:1", None), ("plugin", "expsq", "std-normal"),
                      ("simplified", "power:2", None)]
TEST_Y_KINDS = [("continuous", "null"), ("continuous", "alt"),
                ("discrete", "null"), ("discrete", "alt")]
_LEVEL_CUTS = [-0.84, -0.25, 0.25, 0.84]


def _test_sample(seed: int, index: int, n: int, y_kind: str, hypothesis: str):
    rng = _rng(seed, index)
    xs = rng.uniform(-1.0, 1.0, n)
    ys = rng.standard_normal(n)
    if hypothesis == "alt":
        ys = np.sin(2.0 * np.pi * xs) + (1.0 if n == TEST_SMALL else 0.5) * ys
    if y_kind == "discrete":
        ys = np.digitize(ys, _LEVEL_CUTS).astype(float)
    return xs, ys, int(rng.integers(2**31))


def build_test(seed: int, workdir: Path) -> list:
    plans = [(m, TEST_SMALL, kind, hyp, False) for m in TEST_SMALL_METHODS for kind, hyp in TEST_Y_KINDS]
    plans += [(("simplified", "power:1", None), TEST_LARGE, "continuous", hyp, True)
              for hyp in ("null", "alt", "null", "alt")]
    ops = []
    for index, ((variant, spec, f_spec), n, kind, hyp, continuous) in enumerate(plans):
        xs, ys, tie_seed = _test_sample(seed, index, n, kind, hyp)
        closed_form = continuous and variant != "plugin" and spec.startswith("power:")
        label = " ".join(s for s in (variant, spec, f_spec) if s)
        ops.append(Op(
            setting=label + (" continuous-y" if continuous else ""),
            n=n,
            pairs_needed=(n - 1) if closed_form else _pairs(n),
            args={"xs": xs, "ys": ys, "tie_seed": tie_seed, "variant": variant, "spec": spec,
                  "f": f_spec, "continuous": continuous, "closed_form": closed_form,
                  "props": _series_props([ys])},
        ))
    return _shuffled(ops, seed)


def bind_test(op: Op, xf):
    a = op.args
    sample = xf.PairedSample(xs=a["xs"], ys=a["ys"])
    kernel = xf.kernels.parse_kernel_spec(a["spec"])
    dist = xf.cdf.resolve_dist_spec(a["f"], a["ys"]) if a["f"] else None

    def call():
        r = xf.inference.independence_test(sample, kernel, variant=a["variant"], dist=dist,
                                           tie_seed=a["tie_seed"], continuous_y=a["continuous"])
        return (r.z, r.sigma2_used.sigma2, r.p_one_sided)

    return call


def reference_test(op: Op) -> dict:
    a = op.args
    ys = a["ys"]
    may_refuse = ref.is_constant(ys) or (
        ref.has_ties(ys) and (a["variant"] == "simplified" or a["closed_form"]))
    z, s2, p = ref.independence_test(a["xs"], ys, a["variant"], a["spec"], a["f"],
                                     a["tie_seed"], a["continuous"])
    return {"z": z, "sigma2": s2, "p": p, "may_refuse": may_refuse, "props": a["props"]}


def check_test(op: Op, output, expected) -> str:
    raised = _raised(output)
    if raised:
        return REFUSED if raised == "refused" and expected["may_refuse"] else FAILED
    z, s2, p = output
    if (abs(s2 - expected["sigma2"]) <= ref.REL_TOL * abs(expected["sigma2"])
            and abs(z - expected["z"]) <= ref.REL_TOL * max(abs(expected["z"]), 1.0)
            and abs(p - expected["p"]) <= ref.REL_TOL):
        return OK
    return FAILED


def perturb_test(output):
    z = output[0]
    return (z + ref.PERTURBATION * max(abs(z), 1.0),) + output[1:]


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, workdir) -> list of Op, in cycle order
    bind: Callable  # (op, xifamily) -> zero-argument call returning the output
    reference: Callable  # op -> expected values and input properties
    check: Callable  # (op, output, expected) -> OK | REFUSED | FAILED
    perturb: Callable  # output -> the same output moved by PERTURBATION


WORKLOADS = {
    "screen": Workload(build_screen, bind_screen, reference_screen, check_screen, perturb_screen),
    "table": Workload(build_table, bind_table, reference_table, check_table, perturb_table),
    "test": Workload(build_test, bind_test, reference_test, check_test, perturb_test),
}
