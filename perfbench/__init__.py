"""Steady end-to-end benchmark of the SOCET reproduction (see README.md)."""
