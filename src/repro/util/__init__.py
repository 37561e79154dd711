"""Small shared utilities: table rendering, name generation, and the
JSON schema checker (:mod:`repro.util.schema`)."""

from repro.util.namegen import NameGenerator
from repro.util.tables import render_table

__all__ = [
    "NameGenerator",
    "render_table",
]
