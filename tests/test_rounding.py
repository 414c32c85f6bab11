import math
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from riskbounds import format_fixed, round_half_away
from riskbounds.rounding import MAX_DIGITS


def _default_context_format(x: float, digits: int) -> str:
    """format_fixed as it reads under Decimal's default 28-digit context."""
    quantum = Decimal(1).scaleb(-digits)
    value = float(Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP))
    return f"{value + 0.0:.{digits}f}"


def _rounded_decimal(x: float, digits: int) -> str:
    """Oracle: the shortest repr of x rounded half away from zero to
    ``digits`` decimals, in integer arithmetic (no Decimal, no float)."""
    exact = Fraction(repr(x))
    scaled = abs(exact) * 10**digits
    units = int(scaled)
    if scaled - units >= Fraction(1, 2):
        units += 1
    text = str(units).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{text}" if exact < 0 and units else text


class TestRoundHalfAway:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (0.125, 2, 0.13),
            (0.135, 2, 0.14),
            (-0.125, 2, -0.13),
            (0.5, 0, 1.0),
            (-0.5, 0, -1.0),
            (2.675, 2, 2.68),
            (0.844999, 2, 0.84),
            (0.845, 2, 0.85),
            (1.0, 2, 1.0),
        ],
    )
    def test_ties_go_away_from_zero(self, value, digits, expected):
        assert round_half_away(value, digits) == expected

    def test_repr_not_binary_expansion(self):
        # 2.675 stored as a float is slightly below 2.675; rounding its
        # shortest repr must still land on 2.68, not 2.67
        assert round_half_away(2.675, 2) == 2.68

    @given(st.floats(min_value=-1e6, max_value=1e6), st.integers(0, 6))
    def test_result_is_idempotent(self, x, digits):
        once = round_half_away(x, digits)
        assert round_half_away(once, digits) == once

    @given(st.floats(min_value=-1e6, max_value=1e6), st.integers(0, 6))
    def test_error_is_bounded_by_half_quantum(self, x, digits):
        rounded = round_half_away(x, digits)
        assert abs(rounded - x) <= 0.5 * 10.0**-digits + 1e-12


class TestFormatFixed:
    def test_fixed_width_output(self):
        assert format_fixed(0.125, 2) == "0.13"
        assert format_fixed(1.0, 4) == "1.0000"
        assert format_fixed(0.0, 2) == "0.00"

    def test_negative_zero_is_normalized(self):
        assert format_fixed(-0.001, 2) == "0.00"
        assert format_fixed(-0.0, 2) == "0.00"

    def test_negative_values_keep_their_sign(self):
        assert format_fixed(-0.006, 2) == "-0.01"

    def test_nan_prints_as_nan(self):
        assert format_fixed(float("nan"), 4) == "nan"
        assert format_fixed(-float("nan"), 0) == "nan"

    @given(
        st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 40)
    )
    def test_same_bytes_wherever_the_default_context_fits(self, x, digits):
        # unchanged wherever the earlier float route printed the rounded
        # decimal; elsewhere only the rounded decimal itself is accepted
        try:
            expected = _default_context_format(x, digits)
        except InvalidOperation:
            assume(False)
        oracle = _rounded_decimal(x, digits)
        assert format_fixed(x, digits) == oracle
        if expected != oracle:
            assert format_fixed(x, digits) != expected

    @given(
        st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 400)
    )
    def test_prints_the_rounded_decimal(self, x, digits):
        assert format_fixed(x, digits) == _rounded_decimal(x, digits)

    @pytest.mark.parametrize(
        "value,digits,float_route,expected",
        [
            (0.95, 20, "0.94999999999999995559", "0.95000000000000000000"),
            (1e23, 4, "99999999999999991611392.0000", "100000000000000000000000.0000"),
            (123456789012.345678, 6, "123456789012.345673", "123456789012.345670"),
            (2.0**53 + 2.0, 0, "9007199254740994", "9007199254740994"),
        ],
    )
    def test_changed_only_where_the_float_route_was_wrong(
        self, value, digits, float_route, expected
    ):
        assert _default_context_format(value, digits) == float_route
        assert format_fixed(value, digits) == expected
        assert expected == _rounded_decimal(value, digits)

    def test_digits_beyond_the_default_context(self):
        assert format_fixed(0.5, 400) == "0.5" + "0" * 399
        assert format_fixed(1e6, 30) == "1000000." + "0" * 30

    def test_extreme_doubles_at_max_digits(self):
        largest = format_fixed(sys.float_info.max, MAX_DIGITS)
        assert len(largest) == 309 + 1 + MAX_DIGITS
        assert largest.startswith("17976931348623157" + "0" * 292 + ".000")
        # the smallest subnormal prints its shortest repr, 5e-324
        smallest = format_fixed(5e-324, MAX_DIGITS)
        assert smallest == "0." + "0" * 323 + "5" + "0" * (MAX_DIGITS - 324)


def _neighbours(x: float, steps: int) -> list[float]:
    """x and its ``steps`` nearest doubles on either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _fast_path_grid(digits: int) -> list[float]:
    """Deterministic inputs around every place the %-format route of
    format_fixed could part from the Decimal route at ``digits``."""
    bound = 2**51 / 10 ** (digits + 1)
    # half-way points (k + 1/2) / 10**digits: every k below 200, then k
    # log-spaced to 1e18, past the bound (2**51 / 10 is about 2.3e14) into
    # magnitudes where "%.*f" prints digits the shortest repr does not have
    ks = set(range(200))
    ks.update(int(10 ** (e / 4)) for e in range(4 * 18))
    values = []
    for k in sorted(ks):
        tie = float(Fraction(2 * k + 1, 2 * 10**digits))
        values.extend(_neighbours(tie, 4))
    # short decimals whose shortest repr is itself a tie
    values += [2.675, 0.125, 0.05, 0.95, 0.5, 1.5, 2.5, 1.005, 0.015]
    values += _neighbours(bound, 3)
    # zeros, values that round to -0, and subnormals
    values += [0.0, 0.4 / 10**digits, 0.49 / 10**digits, 5e-324, 2.5e-320]
    values += [sys.float_info.min, math.nextafter(sys.float_info.min, 0.0)]
    return values + [-x for x in values]


class TestFormatFixedFastPath:
    """The %-format route must print exactly what the Decimal route does."""

    @pytest.mark.parametrize("digits", range(21))
    def test_grid_matches_the_oracle(self, digits):
        grid = _fast_path_grid(digits)
        wrong = [
            (x, format_fixed(x, digits), _rounded_decimal(x, digits))
            for x in grid
            if format_fixed(x, digits) != _rounded_decimal(x, digits)
        ]
        assert wrong == []

    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (2.675, 2, "2.68"),
            (0.125, 2, "0.13"),
            (0.05, 1, "0.1"),
            (0.95, 1, "1.0"),
            (-0.125, 2, "-0.13"),
            (0.5, 0, "1"),
            (-2.5, 0, "-3"),
        ],
    )
    def test_repr_ties_round_away_from_zero(self, value, digits, expected):
        # "%.*f" rounds the binary value half to even: 0.125 -> "0.12"
        assert format_fixed(value, digits) == expected

    @pytest.mark.parametrize("digits", [0, 2, 4, 20])
    def test_rounding_to_zero_prints_no_sign(self, digits):
        for x in (-0.0, -0.4 / 10**digits, -5e-324):
            assert format_fixed(x, digits) == "0" + ("." + "0" * digits) * bool(digits)

    @pytest.mark.parametrize("digits", [0, 4, 20, 21])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinity_still_raises(self, value, digits):
        # main maps this ArithmeticError to exit 3
        with pytest.raises(InvalidOperation):
            format_fixed(value, digits)
