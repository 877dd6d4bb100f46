"""A pinned hash of the outputs that are exactly rounded ratios of integers.

Rank and lattice-plugin power:1 and power:2 (xi, zeta, normalization),
Chatterjee's coefficient and the simplified zeta of power:1 to power:3 are
each one ratio of integers rounded once. Their bits depend on no libm or SIMD
loop, so the hash holds on every host. It is taken over the sample families
of ``scripts/output_digest.py`` and covers the refusals met there too, by
type and message. A change that moves one of these outputs updates
``PINNED`` in the same commit and names the moved families.
"""

import hashlib
import importlib.util
from pathlib import Path

from xifamily import coefficient, empirical_map, make_kernel

ROOT = Path(__file__).resolve().parents[1]
PINNED = "6709cf46fe291354a11abf6c1119fb44b82e29ed96f522b9409527ff8835ac55"


def load_output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exact_outputs_digest() -> str:
    digest = load_output_digest()
    powers = {g: make_kernel("power", gamma=float(g)) for g in (1, 2, 3)}
    hasher = hashlib.sha256()
    for n in digest.GRID["sizes"]:
        for y_shape in digest.GRID["y_shapes"]:
            for x_shape in digest.GRID["x_shapes"]:
                s = digest.sample(n, y_shape, x_shape)
                hasher.update(f"n={n} y={y_shape} x={x_shape}".encode())
                settings = [("chatterjee", powers[1], None)]
                settings += [("simplified", powers[g], None) for g in (1, 2, 3)]
                for g in (1, 2):
                    settings += [("rank", powers[g], None)]
                    settings += [("plugin", powers[g], empirical_map(s.ys))]
                for variant, kernel, dist in settings:

                    def coef():
                        r = coefficient(s, variant, kernel, dist, digest.TIE_SEED)
                        if variant == "simplified":  # xi and C_h are floats
                            return (r.zeta, r.y_tied)
                        return (r.xi, r.zeta, r.normalization, r.y_tied)

                    digest.record(hasher, coef)
    return hasher.hexdigest()


def test_exactly_rounded_outputs_keep_their_bits():
    assert exact_outputs_digest() == PINNED
