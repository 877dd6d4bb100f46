#!/usr/bin/env python3
"""SHA-256 digests of xifamily's public outputs over a fixed grid of samples.

For each sample family (a size n, a shape of y and a shape of x) this hashes
``order_by_x``, ``ranks``, ``spearman``, ``coefficient`` for every variant,
``independence_test`` with ``continuous_y`` off and on, and ``sigma2_ustat``,
over every kernel and map of the grid. Floats are hashed by their bits, a
refusal by its error type and message, and a warning by its category and
message. It prints one line per family and a total over all of them, so two
checkouts give the same total exactly when every hashed output is bit for bit
the same. With ``--values`` it prints one ``family | call | outputs`` line per
recorded call instead, floats by their shortest repr and arrays by a digest,
so ``diff`` of two checkouts' lines lists every output that moved. The
library is whatever ``xifamily`` is importable:

    PYTHONPATH=src python scripts/output_digest.py [--values]
"""

import argparse
import hashlib
import sys
import warnings

import numpy as np

from xifamily import (
    VARIANTS,
    PairedSample,
    XiFamilyError,
    coefficient,
    custom_kernel,
    empirical_map,
    independence_test,
    order_by_x,
    parse_kernel_spec,
    ranks,
    sigma2_ustat,
    spearman,
    std_normal_map,
    uniform_map,
)

#: a smooth user kernel whose diagonal is not exactly zero, which chi
#: counts and the U-statistic does not
CUSTOM = custom_kernel("custom", lambda u, v: np.square(u - v) * (1.0 + u * v) + 4e-13)

GRID = {
    "kernels": ["power:1", "power:2", "power:3", "power:0.5", "exp:1", "expsq", "custom"],
    "maps": ["std-normal", "uniform", "empirical"],
    "y_shapes": ["distinct", "rounded", "5-level", "binary", "constant", "ulp pairs"],
    "x_shapes": ["distinct", "tied"],
    "sizes": [3, 7, 50, 1000, 5000],
}

TIE_SEED = 7


def sample(n, y_shape, x_shape):
    """The family's sample, from a seed fixed by its place in the grid."""
    rng = np.random.default_rng([n, len(y_shape), len(x_shape)])
    xs = rng.uniform(-1.0, 1.0, n)
    ys = np.sin(3.0 * xs) + rng.normal(size=n)
    if x_shape == "tied":
        # fewer levels than values, so at least two x's are equal
        xs = rng.integers(0, max(2, n // 3), n).astype(float)
    # each odd place holds the float just below the even one before it:
    # distinct y whose packed sort keys nearly all share their high bits in
    # pairs, and whose index order within a pair is not value order
    pairs = ys.copy()
    pairs[1::2] = np.nextafter(ys[: n - 1 : 2], -np.inf)
    ys = {
        "distinct": ys,
        "rounded": ys.round(1),
        "5-level": np.digitize(ys, [-1.0, -0.3, 0.3, 1.0]).astype(float),
        "binary": (ys > 0.0).astype(float),
        "constant": np.full(n, 2.5),
        "ulp pairs": pairs,
    }[y_shape]
    return PairedSample(xs=xs, ys=ys)


def kernel(spec):
    return CUSTOM if spec == "custom" else parse_kernel_spec(spec)


def dist(spec, ys):
    if spec == "std-normal":
        return std_normal_map()
    if spec == "uniform":
        return uniform_map(-3.0, 3.0)
    return empirical_map(ys)


def feed(hasher, value):
    """Hash one output: an array by dtype and bits, a scalar by its repr."""
    if isinstance(value, np.ndarray):
        hasher.update(f"{value.dtype}{value.shape}".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    else:
        hasher.update(repr(value).encode())
    hasher.update(b";")


def outcome(call):
    """What ``call`` returns, or its refusal's type and message, then what it warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outputs = call()
        except XiFamilyError as exc:
            outputs = (type(exc).__name__, str(exc))
    return [*outputs, *(f"{w.category.__name__}: {w.message}" for w in caught)]


def record(hasher, call):
    """Hash what ``call`` returns, raises and warns."""
    for value in outcome(call):
        feed(hasher, value)


def calls(s, grid):
    """``(label, call)`` for every output recorded on sample ``s``, in hashing order."""
    yield "order_by_x, ranks", lambda: (order_by_x(s, TIE_SEED), ranks(s.ys))
    yield "spearman", lambda: (spearman(s),)
    settings = [("chatterjee", "power:1", None)]
    for k in grid["kernels"]:
        settings += [("rank", k, None), ("simplified", k, None)]
        settings += [("plugin", k, m) for m in grid["maps"]]
    for variant, k, m in settings:
        h = kernel(k)
        d = None if m is None else dist(m, s.ys)
        name = " ".join(part for part in (variant, k, m) if part)

        def coef(variant=variant, h=h, d=d):
            r = coefficient(s, variant, h, d, TIE_SEED)
            return (r.xi, r.zeta, r.normalization, r.variant, r.n, r.tie_seed, r.y_tied)

        yield f"coefficient {name}", coef
        for continuous in (False, True):

            def test(variant=variant, h=h, d=d, continuous=continuous):
                t = independence_test(s, h, variant, d, TIE_SEED, continuous)
                v = t.sigma2_used
                return (t.z, v.sigma2, v.source, v.components, t.p_one_sided, t.p_two_sided)

            yield f"independence_test {name} continuous_y={continuous}", test
    for k in grid["kernels"]:
        for m in grid["maps"]:

            def moments(k=k, m=m):
                v = sigma2_ustat(s.ys, kernel(k), dist(m, s.ys))
                return (v.sigma2, v.source, v.components)

            yield f"sigma2_ustat {k} {m}", moments


def family_digest(s, grid):
    hasher = hashlib.sha256()
    for _, call in calls(s, grid):
        record(hasher, call)
    return hasher.hexdigest()


def families(grid):
    """``(label, sample)`` of every family of ``grid``, in digest order."""
    for n in grid["sizes"]:
        for y_shape in grid["y_shapes"]:
            for x_shape in grid["x_shapes"]:
                yield f"n={n} y={y_shape} x={x_shape}", sample(n, y_shape, x_shape)


def digests(grid):
    """``({family label: digest}, total)`` over every family of ``grid``."""
    by_label = {label: family_digest(s, grid) for label, s in families(grid)}
    total = hashlib.sha256("".join(f"{k}={v}\n" for k, v in by_label.items()).encode())
    return by_label, total.hexdigest()


def shown(value):
    """An output as text: an array by a digest of its dtype, shape and bits."""
    if isinstance(value, np.ndarray):
        hasher = hashlib.sha256()
        feed(hasher, value)
        return f"array{value.shape} sha256:{hasher.hexdigest()[:16]}"
    return repr(value)


def value_lines(grid):
    """One ``family | call | outputs`` line per recorded call of ``grid``."""
    for label, s in families(grid):
        for name, call in calls(s, grid):
            yield f"{label} | {name} | {'; '.join(shown(v) for v in outcome(call))}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", action="store_true",
                        help="print every recorded output instead of the family digests")
    if parser.parse_args().values:
        for line in value_lines(GRID):
            print(line)
        return 0
    by_label, total = digests(GRID)
    for label, digest in by_label.items():
        print(f"{digest}  {label}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
