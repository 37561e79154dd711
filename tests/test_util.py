"""Tests for repro.util helpers."""

import pytest

from repro.util import NameGenerator, render_table


class TestNameGenerator:
    def test_fresh_unique(self):
        gen = NameGenerator()
        names = {gen.fresh("x") for _ in range(100)}
        assert len(names) == 100

    def test_avoids_reserved(self):
        gen = NameGenerator(reserved=["x_0", "x_1"])
        assert gen.fresh("x") == "x_2"

    def test_reserve_after_creation(self):
        gen = NameGenerator()
        gen.reserve("y_0")
        assert gen.fresh("y") == "y_1"


class TestRenderTable:
    def test_renders_header_and_rows(self):
        text = render_table(["a", "bb"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert "22" in lines[3]

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_title(self):
        text = render_table(["a"], [[1]], title="T1")
        assert text.splitlines()[0] == "T1"
