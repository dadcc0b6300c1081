"""PCG64 streams that emit chosen raw words, for tests.

PCG64 steps its 128-bit LCG (``state = state * MULT + inc``) and then
outputs the XSL-RR of the new state, and both steps invert.  A state
whose output is a given word is free in its high half, which fixes the
rotation; the low half is the rotated word XOR the high half.  Word
``k`` of a :func:`repro.runner.jobs.restate` row is the output of
``A[k] * s + C[k] * inc``, as :class:`repro.runner.jobs.PCG64Lanes`
computes it forwards, so two consecutive words pin ``s`` and the odd
``inc`` by a 2x2 solve mod ``2**128``.  Everything here runs on Python
ints, independently of ``PCG64Lanes``.
"""

import numpy as np

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1


def state_emitting(word, high):
    """A 128-bit state whose XSL-RR output is ``word``, with high half
    ``high`` (64 bits)."""
    rotation = high >> 58
    value = ((word << rotation) | (word >> (64 - rotation))) & _MASK64
    return (high << 64) | (value ^ high)


def _jump(k):
    """``(A[k], C[k])``: word ``k`` is the output of ``A*s + C*inc``."""
    power, total = 1, 0
    for _ in range(k + 3):
        total = (total + power) & _MASK128
        power = (power * MULT) & _MASK128
    return pow(MULT, k + 2, 1 << 128), total


def row_emitting(at, first, second, highs=(0x0123456789ABCDEF, 0x0FEDCBA987654321)):
    """A ``restate`` row whose words ``at`` and ``at + 1`` are ``first``
    and ``second``; ``highs`` are the two states' free high halves."""
    (a1, c1), (a2, c2) = _jump(at), _jump(at + 1)
    a1_inv = pow(a1, -1, 1 << 128)
    ratio = a2 * a1_inv
    # ``c2 - ratio * c1`` is odd (consecutive C's differ in parity), so
    # ``inc`` is unique; flipping the second state's low bit (and its
    # high half's, keeping the output) flips ``inc``'s parity.
    d_inv = pow((c2 - ratio * c1) & _MASK128, -1, 1 << 128)
    x1 = state_emitting(first, highs[0])
    x2 = state_emitting(second, highs[1])
    inc = ((x2 - ratio * x1) * d_inv) & _MASK128
    if not inc & 1:
        x2 ^= (1 << 64) | 1
        inc = ((x2 - ratio * x1) * d_inv) & _MASK128
    s = (a1_inv * (x1 - c1 * inc)) & _MASK128
    seq = inc >> 1
    return np.array(
        [s >> 64, s & _MASK64, seq >> 64, seq & _MASK64], dtype=np.uint64
    )
