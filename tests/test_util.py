"""Tests for repro.util helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import NameGenerator, int_to_bits, render_table


class TestBitops:
    def test_int_to_bits_basic(self):
        assert int_to_bits(5, 4) == [1, 0, 1, 0]

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, value):
        bits = int_to_bits(value, 33)
        assert bits[32] == 0
        assert sum(bit << position for position, bit in enumerate(bits)) == value

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
    def test_roundtrip_bits(self, bits):
        value = sum(bit << position for position, bit in enumerate(bits))
        assert int_to_bits(value, len(bits)) == bits


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
