"""Three-valued (0/1/X) logic used by PODEM's implication engine.

The fault machine is simulated as a *pair* of three-valued machines
(good, faulty); a net carries a D when good=1/faulty=0 and a D-bar when
good=0/faulty=1.  Values are small ints: 0, 1, and 2 for X.

Gates are evaluated through integer *kind codes* rather than
:class:`~repro.gates.cells.GateKind` members: PODEM's compiled netlist
stores one code per gate and :func:`eval3` dispatches on it.  Codes
below :data:`K_OUTPUT` come in (plain, inverted) pairs, so bit 0 of such
a code is the output inversion.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import AtpgError
from repro.gates.cells import GateKind

ZERO, ONE, X = 0, 1, 2

#: three-valued NOT as a lookup table
_NOT = (ONE, ZERO, X)


def v_not(a: int) -> int:
    return _NOT[a]


# evaluated kinds: (plain, inverted) pairs first, then OUTPUT and MUX2
K_BUF, K_NOT, K_AND, K_NAND, K_OR, K_NOR, K_XOR, K_XNOR, K_OUTPUT, K_MUX2 = range(10)
# kinds whose value is set, never evaluated
K_INPUT, K_STATE, K_CONST0, K_CONST1 = range(10, 14)

KIND_CODE: Dict[GateKind, int] = {
    GateKind.BUF: K_BUF,
    GateKind.NOT: K_NOT,
    GateKind.AND: K_AND,
    GateKind.NAND: K_NAND,
    GateKind.OR: K_OR,
    GateKind.NOR: K_NOR,
    GateKind.XOR: K_XOR,
    GateKind.XNOR: K_XNOR,
    GateKind.OUTPUT: K_OUTPUT,
    GateKind.MUX2: K_MUX2,
    GateKind.INPUT: K_INPUT,
    GateKind.DFF: K_STATE,
    GateKind.SDFF: K_STATE,
    GateKind.CONST0: K_CONST0,
    GateKind.CONST1: K_CONST1,
}

#: controlling input value per kind code (absent if the kind has none)
CONTROLLING = {K_AND: ZERO, K_NAND: ZERO, K_OR: ONE, K_NOR: ONE}


def eval3(code: int, fanins: Sequence[int], values: List[int]) -> int:
    """Three-valued output of a gate of kind ``code`` whose inputs are
    ``values[f]`` for ``f`` in ``fanins``."""
    if code == K_MUX2:
        select = values[fanins[2]]
        if select != X:
            return values[fanins[select]]
        d0 = values[fanins[0]]
        return d0 if d0 == values[fanins[1]] else X
    if code <= K_NOT or code == K_OUTPUT:
        value = values[fanins[0]]
    elif code <= K_NAND:
        value = ONE
        for f in fanins:
            a = values[f]
            if a == ZERO:
                value = ZERO
                break
            if a == X:
                value = X
    elif code <= K_NOR:
        value = ZERO
        for f in fanins:
            a = values[f]
            if a == ONE:
                value = ONE
                break
            if a == X:
                value = X
    elif code <= K_XNOR:
        a, b = values[fanins[0]], values[fanins[1]]
        value = X if a == X or b == X else a ^ b
    else:
        raise AtpgError(f"cannot evaluate kind code {code} in three-valued logic")
    return _NOT[value] if code & 1 else value
