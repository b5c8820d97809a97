"""Bit-level helpers for vertices of {0,1}^d.

Convention used everywhere: coordinate i (0-based) of a vertex is bit i of
its integer index, so the textual form "011" (coordinate 1 leftmost) maps
to the integer 0b110 = 6.
"""

from __future__ import annotations

from .errors import ParseError


def bits_to_index(text: str, line: int | None = None) -> int:
    """Decode a left-to-right coordinate string like "011" to a vertex index."""
    value = 0
    for i, ch in enumerate(text):
        if ch == "1":
            value |= 1 << i
        elif ch != "0":
            raise ParseError(f"malformed bitstring {text!r}", line)
    return value


def index_to_bits(value: int, width: int) -> str:
    """Encode a vertex index as a coordinate string of the given width."""
    return "".join("1" if (value >> i) & 1 else "0" for i in range(width))


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def drop_bit(mask: int, position: int) -> int:
    """Remove bit ``position`` from a mask, shifting higher bits down."""
    low = mask & ((1 << position) - 1)
    return low | ((mask >> (position + 1)) << position)


def gf2_rank(column_bitsets) -> int:
    """Rank over GF(2) of columns given as integer bitsets."""
    basis: dict[int, int] = {}
    rank = 0
    for v in column_bitsets:
        while v:
            lead = v.bit_length() - 1
            w = basis.get(lead)
            if w is None:
                basis[lead] = v
                rank += 1
                break
            v ^= w
    return rank
