"""Behavioral memory model with injectable faults.

Supports the classic RAM fault models March tests are graded on:

* :class:`CellStuckAt` -- one bit of one word stuck at 0/1;
* :class:`InversionCoupling` -- a write transition on an aggressor bit
  inverts a victim bit (CFin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CellStuckAt:
    """Bit ``bit`` of word ``address`` stuck at ``value``."""

    address: int
    bit: int
    value: int


@dataclass(frozen=True)
class InversionCoupling:
    """A transition written into the aggressor flips the victim bit."""

    aggressor_address: int
    aggressor_bit: int
    victim_address: int
    victim_bit: int


Fault = object  # CellStuckAt | InversionCoupling


class BehavioralMemory:
    """A word-addressable RAM with optional injected faults."""

    def __init__(self, words: int, width: int, fault: Optional[Fault] = None) -> None:
        if words <= 0 or width <= 0:
            raise ValueError("memory must have positive geometry")
        self.words = words
        self.width = width
        self.fault = fault
        self._data: Dict[int, int] = {}

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.words:
            raise IndexError(f"address {address} out of range [0, {self.words})")

    def _apply_stuck(self, address: int, value: int) -> int:
        fault = self.fault
        if isinstance(fault, CellStuckAt) and fault.address == address:
            if fault.value:
                value |= 1 << fault.bit
            else:
                value &= ~(1 << fault.bit)
        return value

    def write(self, address: int, value: int) -> None:
        self._check_address(address)
        value &= (1 << self.width) - 1
        old = self._data.get(address, 0)
        fault = self.fault
        if isinstance(fault, InversionCoupling) and fault.aggressor_address == address:
            aggressor_mask = 1 << fault.aggressor_bit
            if (old ^ value) & aggressor_mask:
                victim_old = self._data.get(fault.victim_address, 0)
                self._data[fault.victim_address] = victim_old ^ (1 << fault.victim_bit)
                # the victim cell may itself be the written word; re-read below
        self._data[address] = self._apply_stuck(address, value)

    def read(self, address: int) -> int:
        self._check_address(address)
        return self._apply_stuck(address, self._data.get(address, 0))


def all_stuck_at_faults(words: int, width: int, stride: int = 1) -> List[CellStuckAt]:
    """Enumerate cell stuck-at faults (optionally subsampled by stride)."""
    faults = []
    for address in range(0, words, stride):
        for bit in range(width):
            faults.append(CellStuckAt(address, bit, 0))
            faults.append(CellStuckAt(address, bit, 1))
    return faults


def neighbour_coupling_faults(words: int, width: int, stride: int = 1) -> List[InversionCoupling]:
    """Inversion couplings between adjacent words (same bit lane)."""
    faults = []
    for address in range(0, words - 1, stride):
        for bit in range(width):
            faults.append(InversionCoupling(address, bit, address + 1, bit))
            faults.append(InversionCoupling(address + 1, bit, address, bit))
    return faults
