"""Tests for the tests' bit-unpacking helper (:mod:`tests.bits`)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.bits import int_to_bits


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
