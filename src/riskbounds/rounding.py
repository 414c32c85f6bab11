"""Presentation rounding: round half away from zero, like printed tables do.

Python's built-in round() uses banker's rounding, which disagrees with how
reference tables are typically printed (0.125 -> 0.13, not 0.12).  Going
through Decimal with ROUND_HALF_UP on the shortest repr avoids binary
representation surprises.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal

#: Decimals past which every finite double prints only zeros: the smallest
#: subnormal, 2**-1074, has exactly 1074 digits after the point.
MAX_DIGITS = 1074
# Room for the 309 integer digits of the largest double plus MAX_DIGITS
# decimals, so quantize never runs out of precision (the default context
# keeps 28 digits).  Passed as context= rather than set per call.
_QUANTIZE_CONTEXT = Context(prec=309 + MAX_DIGITS)


def _quantize(x: float, digits: int) -> Decimal:
    return Decimal(repr(float(x))).quantize(
        Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP, context=_QUANTIZE_CONTEXT
    )


def round_half_away(x: float, digits: int = 2) -> float:
    """Round to ``digits`` decimals with ties going away from zero."""
    return float(_quantize(x, digits))


def format_fixed(x: float, digits: int) -> str:
    """Fixed-point string with half-away-from-zero rounding.

    Prints the rounded decimal itself, not the double nearest to it, so
    high ``digits`` and values above 2**53 show no binary-expansion digits.
    """
    quantized = _quantize(x, digits)
    if quantized.is_nan():
        return "nan"
    if quantized.is_zero():
        quantized = quantized.copy_abs()  # prints -0.00 as 0.00
    return format(quantized, "f")
