"""Bit unpacking for tests that drive simulators one input bit at a time."""

from __future__ import annotations

from typing import List


def int_to_bits(value: int, width: int) -> List[int]:
    """Unpack ``value`` into ``width`` bits, LSB first.

    >>> int_to_bits(5, 4)
    [1, 0, 1, 0]
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    return [(value >> i) & 1 for i in range(width)]
