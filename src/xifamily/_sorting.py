"""One sort for every ordering step (x-order, ranks, mid-ranks, row sums), and
the cache-sized blocks that keep n-sized temporaries out of the hot paths."""

from __future__ import annotations

import numpy as np

#: from this many values on, packed keys beat argsort + gather (measured
#: ratio 0.8x at 1000, 1.1x at 2000, 1.3x at 4096 and 1.5-1.7x from 6000 to
#: 1e5 on a 2-core Xeon with numpy 2.4); below it a permutation-sorting key
#: costs more than numpy's float argsort saves
_PACKED_SORT_MIN = 4096

_NON_SIGN_BITS = 0x7FFF_FFFF_FFFF_FFFF

#: values per block of a temporary that would otherwise hold n values (an
#: index ramp, the rank gaps): an n-sized array is handed back to the OS
#: after every call and page-faulted in again, a block of this size is not
BLOCK = 2**14


def blocks(n: int, size: int = BLOCK):
    """``(start, stop)`` bounds that cover range(n) in pieces of ``size``."""
    for start in range(0, n, size):
        yield start, min(start + size, n)


def sort_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values[order])`` with ``values[order]`` ascending, NaNs last.

    Below ``_PACKED_SORT_MIN`` values this is ``np.argsort`` and a gather.
    From there the order comes from one int64 ``sort`` of packed keys, which
    numpy runs with its SIMD integer sort: each float's bits, with the
    non-sign bits of negatives flipped so that integer order is float order,
    keep their high bits and carry the index in the low
    ``(n - 1).bit_length()`` bits. Values that share their kept high bits
    then come out in index order, which may not be value order, and a NaN
    of either sign lands at an end of its own. A check on the gathered
    values catches both, and a stable argsort of that nearly sorted result
    repairs it. Distinct values have one sorting permutation, so the order
    is then ``np.argsort``'s; among equal values it may differ, which no
    caller depends on.
    """
    n = values.size
    if n < _PACKED_SORT_MIN:
        order = np.argsort(values)
        return order, values[order]
    bits = (n - 1).bit_length()
    raw = values.view(np.int64)
    key = raw >> 63  # -1 for a set sign bit, else 0
    key &= _NON_SIGN_BITS
    key ^= raw
    key &= -1 << bits
    for start, stop in blocks(n):
        key[start:stop] |= np.arange(start, stop)
    key.sort()
    key &= (1 << bits) - 1
    order = key
    ordered = values[order]
    if not (ordered[1:] >= ordered[:-1]).all():
        repair = np.argsort(ordered, kind="stable")
        order = order[repair]
        ordered = ordered[repair]
    return order, ordered
