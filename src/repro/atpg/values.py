"""Three-valued (0/1/X) logic used by PODEM's implication engine.

The fault machine is simulated as a *pair* of three-valued machines
(good, faulty); a net carries a D when good=1/faulty=0 and a D-bar when
good=0/faulty=1.  Values are small ints: 0, 1, and 2 for X.

Gates are identified by integer *kind codes* rather than
:class:`~repro.gates.cells.GateKind` members: PODEM's compiled netlist
stores one code per gate, and :func:`eval3` defines each code's
three-valued output.  Codes below :data:`K_OUTPUT` come in (plain,
inverted) pairs, so bit 0 of such a code is the output inversion.

PODEM holds each net's pair as one *paired code* ``3 * good + faulty``
(0-8) and evaluates both machines with one lookup in a per-kind table
built from :func:`eval3` (:data:`PAIR_TABLES`, :func:`pair_eval`).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence, Tuple

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


# ----------------------------------------------------------------------
# paired codes: one int per (good, faulty) pair
# ----------------------------------------------------------------------
#: both machines at 0, at 1, at X
PAIR_ZERO, PAIR_ONE, PAIR_X = 0, 4, 8

#: per paired code: its good half
GOOD: Tuple[int, ...] = tuple(code // 3 for code in range(9))
#: per paired code: does the net carry a D or a D-bar (both halves
#: known and different)?
HAS_D: Tuple[bool, ...] = tuple(
    code // 3 != X and code % 3 != X and code // 3 != code % 3 for code in range(9)
)
#: per paired code: is either half X?
UNKNOWN: Tuple[bool, ...] = tuple(code // 3 == X or code % 3 == X for code in range(9))


def _pair_table(code: int, arity: int) -> Tuple[int, ...]:
    """The paired output of kind ``code`` for every tuple of ``arity``
    operand codes, operand 0 the most significant base-9 digit."""
    pins = range(arity)
    # one machine's output per operand tuple, operand 0 the most
    # significant base-3 digit
    single = [
        eval3(code, pins, list(operands)) for operands in product((ZERO, ONE, X), repeat=arity)
    ]
    table = []
    for operands in product(range(9), repeat=arity):
        good = faulty = 0
        for operand in operands:
            good = 3 * good + operand // 3
            faulty = 3 * faulty + operand % 3
        table.append(3 * single[good] + single[faulty])
    return tuple(table)


#: kind code -> paired table at the arity it is looked up at: one operand
#: for BUF/NOT/OUTPUT (index ``a``), two for AND..XNOR (``9 * a + b``),
#: three for MUX2 (``81 * d0 + 9 * d1 + select``).  Wider AND/OR/NAND/NOR
#: fold pairwise: :data:`FOLD` over all but the last operand, then the
#: kind's own table.
PAIR_TABLES: Dict[int, Tuple[int, ...]] = {
    code: _pair_table(code, 1 if code in (K_BUF, K_NOT, K_OUTPUT) else 3 if code == K_MUX2 else 2)
    for code in range(K_MUX2 + 1)
}

#: AND/NAND and OR/NOR kind code -> the two-input table their wide forms
#: fold the leading operands with (the plain kind: NAND(a, b, c) is
#: NAND(AND(a, b), c))
FOLD: Dict[int, Tuple[int, ...]] = {code: PAIR_TABLES[code & ~1] for code in CONTROLLING}


def pair_eval(code: int, operands: Sequence[int]) -> int:
    """Paired output of a gate of kind ``code`` on paired ``operands``:
    :func:`eval3` on the good halves and on the faulty halves, in one
    table lookup per operand pair."""
    table = PAIR_TABLES[code]
    if code == K_MUX2:
        d0, d1, select = operands
        return table[81 * d0 + 9 * d1 + select]
    if len(operands) == 1:
        return table[operands[0]]
    value = operands[0]
    if len(operands) > 2:
        fold = FOLD[code]
        for operand in operands[1:-1]:
            value = fold[9 * value + operand]
    return table[9 * value + operands[-1]]
