"""Small shared utilities: bit unpacking, table rendering, name generation."""

from repro.util.bitops import int_to_bits
from repro.util.namegen import NameGenerator
from repro.util.tables import render_table

__all__ = [
    "int_to_bits",
    "NameGenerator",
    "render_table",
]
