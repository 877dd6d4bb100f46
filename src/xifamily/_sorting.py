"""One sort for every ordering step (x-order, ranks, mid-ranks, row sums), and
the cache-sized blocks that keep n-sized temporaries out of the hot paths.

From ``_PACKED_SORT_MIN`` values on, a sort is an in-place int64 sort of
packed keys (``packed_sort``): a value's order-preserving high bits over a
tag, an index or a rank, in the low ``(n - 1).bit_length()`` bits of n keys.
``gathered`` and ``settle`` check the order and strip the keys to their tags,
so no caller sees the layout."""

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

#: ``settle`` checks this many adjacent keys as a block of their own before
#: the rest: on heavily tied values a tie shows among the first few pairs
_TIE_PROBE = 64


def blocks(n: int, size: int = BLOCK):
    """``(start, stop)`` bounds that cover range(n) in pieces of ``size``."""
    for start in range(0, n, size):
        yield start, min(start + size, n)


def scatter_ramp(out: np.ndarray, order: np.ndarray, first: int = 0) -> None:
    """``out[order] = first, first + 1, ...``, one block of the ramp at a time."""
    for start, stop in blocks(order.size):
        out[order[start:stop]] = np.arange(start + first, stop + first)


def packed_sort(values: np.ndarray, key: np.ndarray) -> None:
    """OR each value's high bits into ``key``, which holds one tag per value,
    below ``key.size``, and sort it in place: value order, except that values
    sharing their high bits come out in tag order.

    A float's bits order like the float once the non-sign bits of negatives
    are flipped; -0.0 is made 0.0 first, so equal values share their bits.
    """
    high = -1 << (key.size - 1).bit_length()
    for start, stop in blocks(values.size):
        image = np.add(values[start:stop], 0.0).view(np.int64)  # -0.0 + 0.0 is 0.0
        flips = image >> 63  # -1 for a set sign bit, else 0
        flips &= _NON_SIGN_BITS
        image ^= flips
        image &= high
        key[start:stop] |= image
    key.sort()


def settle(key: np.ndarray, value_of) -> bool:
    """Strip ``packed_sort``-ed keys of finite values to their tags in value
    order, or return True on two equal values and leave ``key`` unfinished.

    Only keys that share their high bits can be out of value order or tied,
    so only their values are looked up, by ``value_of(tags)``: first pair by
    pair, the first ``_TIE_PROBE`` pairs ahead of the rest, then all at once.
    Kept high bits order like the values, so one stable argsort by value of
    the keys in such runs puts every run in order.
    """
    bits = (key.size - 1).bit_length()
    low = (1 << bits) - 1
    collided = []
    probe = min(_TIE_PROBE, key.size - 1)
    bounds = [(0, probe)] + [(probe + a, probe + b) for a, b in blocks(key.size - 1 - probe)]
    for start, stop in bounds:
        shared = key[start:stop] ^ key[start + 1 : stop + 1]
        shared >>= bits
        pairs = np.flatnonzero(shared == 0) + start
        if pairs.size:
            if (value_of(key[pairs] & low) == value_of(key[pairs + 1] & low)).any():
                return True
            collided.append(pairs)
    if collided:
        pairs = np.concatenate(collided)
        in_runs = np.zeros(key.size, dtype=bool)
        in_runs[pairs] = True
        in_runs[pairs + 1] = True
        places = np.flatnonzero(in_runs)
        runs = key[places]
        values = value_of(runs & low)
        repair = np.argsort(values, kind="stable")
        values = values[repair]
        if (values[1:] == values[:-1]).any():
            return True
        key[places] = runs[repair]
    key &= low
    return False


def sort_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values[order])`` with ``values[order]`` ascending, NaNs last.

    Below ``_PACKED_SORT_MIN`` values this is ``np.argsort`` and a gather.
    From there the order comes from one ``packed_sort`` of the indices,
    which numpy runs with its SIMD integer sort; the indices take the low
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
    key = np.arange(n, dtype=np.int64)
    packed_sort(values, key)
    return gathered(key, values)


def gathered(key: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sort_order(values)`` from ``packed_sort``-ed index keys, which it strips."""
    key &= (1 << (key.size - 1).bit_length()) - 1
    order = key
    ordered = values[order]
    if not (ordered[1:] >= ordered[:-1]).all():
        repair = np.argsort(ordered, kind="stable")
        order = order[repair]
        ordered = ordered[repair]
    return order, ordered
