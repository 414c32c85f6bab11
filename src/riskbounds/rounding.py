"""Presentation rounding: round half away from zero, like printed tables do.

Python's built-in round() uses banker's rounding, which disagrees with how
reference tables are typically printed (0.125 -> 0.13, not 0.12).  Going
through Decimal with ROUND_HALF_UP on the shortest repr avoids binary
representation surprises; format_fixed takes a faster, provably identical
route through correctly rounded %-formatting wherever one exists.
"""

from __future__ import annotations

import functools
from decimal import ROUND_HALF_UP, Context, Decimal

#: Decimals past which every finite double prints only zeros: the smallest
#: subnormal, 2**-1074, has exactly 1074 digits after the point.
MAX_DIGITS = 1074
# Room for the 309 integer digits of the largest double plus MAX_DIGITS
# decimals, so quantize never runs out of precision (the default context
# keeps 28 digits).  Passed as context= rather than set per call.
_QUANTIZE_CONTEXT = Context(prec=309 + MAX_DIGITS)
# format_fixed's %-format route serves digits <= 20 and |x| below
# 2**51 / 10**(digits + 1), where one ulp of x is under 10**-(digits + 1)
_FAST_BOUNDS = tuple(2**51 / 10 ** (d + 1) for d in range(21))


@functools.cache
def _quantum(digits: int) -> Decimal:
    return Decimal(1).scaleb(-digits)


def _quantize(x: float, digits: int) -> Decimal:
    return Decimal(repr(float(x))).quantize(
        _quantum(digits), rounding=ROUND_HALF_UP, context=_QUANTIZE_CONTEXT
    )


def format_fixed(x: float, digits: int) -> str:
    """Fixed-point string with half-away-from-zero rounding.

    Prints the shortest repr of ``x`` rounded half away from zero, as a
    decimal, so high ``digits`` and values above 2**53 show no
    binary-expansion digits.  The Decimal route below is the definition.

    Where ``digits <= 20`` and ``|x| < 2**51 / 10**(digits + 1)``, the
    correctly rounded ``%`` formatting of the double prints the same bytes
    faster.  There one ulp of x is below 10**-(digits + 1), so at most one
    (digits + 1)-decimal lies in the interval of reals that round to x.
    The shortest repr and x both lie in that interval.  If no half-way
    point (k + 1/2) / 10**digits lies in it, neither is a half-way point
    and both are on the same side of every one, so rounding either to
    nearest gives the same digits, whatever the tie rule.  If one does, it
    is the only (digits + 1)-decimal there, and the repr, which has no
    more digits than it, is that half-way point itself.  Then the nearest
    (digits + 1)-decimal to x, ``probe`` below, ends in 5 and reads back
    as x, and that value takes the Decimal route.  NaN and infinities fail
    the bound and take the Decimal route too.
    """
    if type(x) is not float:
        x = float(x)
    if 0 <= digits <= 20 and abs(x) < _FAST_BOUNDS[digits]:
        probe = "%.*f" % (digits + 1, x)
        if probe[-1] != "5" or float(probe) != x:
            text = "%.*f" % (digits, x)
            if text[0] == "-" and not text.strip("-0."):
                return text[1:]  # prints -0.00 as 0.00
            return text
    quantized = _quantize(x, digits)
    if quantized.is_nan():
        return "nan"
    if quantized.is_zero():
        quantized = quantized.copy_abs()  # prints -0.00 as 0.00
    return format(quantized, "f")
