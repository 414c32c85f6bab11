from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import goldens
from riskbounds import (
    CategoryRow,
    CategoryTable,
    CM1PseudoInput,
    InputError,
    ParseError,
    PointRisk,
    ScenarioSpec,
    exact_coverage,
    expand_weights,
    parse_category_table,
    student_t_quantile,
)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    categories = draw(
        st.lists(
            st.integers(min_value=1, max_value=500), min_size=n, max_size=n, unique=True
        )
    )
    rows = []
    for cat in sorted(categories):
        total = draw(st.integers(min_value=1, max_value=10_000))
        events = draw(st.integers(min_value=0, max_value=total))
        rows.append(CategoryRow(cat, total, events))
    return CategoryTable(rows=tuple(rows))


class TestRowValidation:
    def test_accepts_boundary_counts(self):
        assert CategoryRow(1, 1, 0).proportion == 0.0
        assert CategoryRow(9, 9, 9).proportion == 1.0

    @pytest.mark.parametrize(
        "category,total,events",
        [(0, 10, 1), (-1, 10, 1), (1, 0, 0), (1, 10, -1), (1, 10, 11)],
    )
    def test_rejects_impossible_counts(self, category, total, events):
        with pytest.raises(InputError):
            CategoryRow(category, total, events)

    def test_rejects_non_integer_fields(self):
        with pytest.raises(InputError):
            CategoryRow(1, 10.0, 1)
        with pytest.raises(InputError):
            CategoryRow(1, 10, True)

    def test_non_integer_message_names_the_first_bad_field(self):
        with pytest.raises(InputError) as exc:
            CategoryRow(1, 10.0, True)
        assert str(exc.value) == "total must be an integer, got 10.0"

    def test_int_subclasses_other_than_bool_are_accepted(self):
        class Count(int):
            pass

        row = CategoryRow(Count(2), 10, Count(3))
        assert (row.category, row.total, row.events) == (2, 10, 3)


class TestTableValidation:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            CategoryTable(rows=())

    def test_rejects_non_increasing_categories(self):
        rows = (CategoryRow(2, 5, 1), CategoryRow(1, 5, 1))
        with pytest.raises(InputError):
            CategoryTable(rows=rows)

    def test_totals(self):
        rows = tuple(CategoryRow(*counts) for counts in goldens.VRAG_COUNTS)
        table = CategoryTable(rows=rows)
        assert table.total_subjects == goldens.VRAG_TOTAL_SUBJECTS
        assert table.total_events == goldens.VRAG_TOTAL_EVENTS
        assert table.categories == tuple(range(1, 10))


class TestParsing:
    def test_fixture_parses_and_matches_counts(self, vrag_table):
        observed = tuple((r.category, r.total, r.events) for r in vrag_table.rows)
        assert observed == goldens.VRAG_COUNTS

    def test_comments_blanks_and_bom(self):
        text = "﻿# leading comment\n\ncategory,total,events\n# mid\n1,10,2\n\n2,20,5\n"
        table = parse_category_table(text)
        assert table.categories == (1, 2)

    def test_crlf_and_unsorted_rows(self):
        text = "category,total,events\r\n3,30,3\r\n1,10,1\r\n2,20,2\r\n"
        table = parse_category_table(text)
        assert table.categories == (1, 2, 3)

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_category_table("")
        assert exc.value.line == 1

    def test_header_only(self):
        with pytest.raises(ParseError):
            parse_category_table("category,total,events\n")

    def test_wrong_header(self):
        with pytest.raises(ParseError) as exc:
            parse_category_table("a,b,c\n1,2,3\n")
        assert exc.value.line == 1

    def test_error_carries_line_number(self):
        text = "category,total,events\n1,10,2\n2,x,5\n"
        with pytest.raises(ParseError) as exc:
            parse_category_table(text)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_bad_row_shape(self):
        with pytest.raises(ParseError):
            parse_category_table("category,total,events\n1,10\n")

    def test_duplicate_category(self):
        text = "category,total,events\n1,10,2\n1,20,5\n"
        with pytest.raises(ParseError) as exc:
            parse_category_table(text)
        assert "duplicate" in str(exc.value)

    def test_events_exceeding_total_rejected_with_line(self):
        text = "category,total,events\n1,10,11\n"
        with pytest.raises(ParseError) as exc:
            parse_category_table(text)
        assert exc.value.line == 2

    def test_fields_padded_with_spaces_and_tabs(self):
        text = " category ,\ttotal\t, events\n 1 ,\t10\t, 2 \n\t2,20 ,5\t\n"
        table = parse_category_table(text)
        assert [(r.category, r.total, r.events) for r in table.rows] == [
            (1, 10, 2),
            (2, 20, 5),
        ]

    def test_field_wrapped_in_unit_separator(self):
        # str.strip removes \x1c-\x1f and int() does not, so each field is
        # stripped before int() reads it
        table = parse_category_table("category,total,events\n1,\x1f10\x1f,2\n")
        assert (table.rows[0].total, table.rows[0].events) == (10, 2)

    def test_int_literal_forms(self):
        table = parse_category_table("category,total,events\n+3,1_000,+7\n")
        assert [(r.category, r.total, r.events) for r in table.rows] == [(3, 1000, 7)]

    def test_crlf_with_bom(self):
        text = "\ufeffcategory,total,events\r\n2,20,5\r\n1,10,2\r\n"
        table = parse_category_table(text)
        assert [(r.category, r.total, r.events) for r in table.rows] == [
            (1, 10, 2),
            (2, 20, 5),
        ]

    def test_first_bad_line_wins(self):
        # a range error on line 3 is raised before the non-integer on line 5
        text = "category,total,events\n1,10,2\n2,10,11\n3,10,1\n4,x,1\n"
        with pytest.raises(ParseError) as exc:
            parse_category_table(text)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: category 2: events (11) exceed total (10)"

    def test_totals_above_two_to_the_64_parse(self):
        table = parse_category_table("category,total,events\n1,18446744073709551617,3\n")
        (row,) = table.rows
        assert type(row.total) is int
        assert (row.total, row.events) == (18446744073709551617, 3)

    @given(tables())
    def test_serialize_parse_round_trip(self, table):
        text = "category,total,events\n" + "".join(
            f"{r.category},{r.total},{r.events}\n" for r in table.rows
        )
        again = parse_category_table(text)
        assert again.rows == table.rows


class TestExpandWeights:
    def test_identity_at_one(self, vrag_table):
        expanded = expand_weights(vrag_table, 1)
        assert expanded.rows == vrag_table.rows

    def test_counts_scale(self, vrag_table):
        expanded = expand_weights(vrag_table, 100)
        assert expanded.total_subjects == 100 * vrag_table.total_subjects
        assert expanded.total_events == 100 * vrag_table.total_events
        assert expanded.categories == vrag_table.categories

    def test_factor_chaining(self, vrag_table):
        twice = expand_weights(expand_weights(vrag_table, 10), 10)
        assert twice.rows == expand_weights(vrag_table, 100).rows

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_rejects_bad_factor(self, vrag_table, k):
        with pytest.raises(InputError):
            expand_weights(vrag_table, k)

    @given(tables(), st.integers(min_value=1, max_value=1000))
    def test_proportions_invariant_as_rationals(self, table, k):
        expanded = expand_weights(table, k)
        for before, after in zip(table.rows, expanded.rows):
            assert Fraction(before.events, before.total) == Fraction(
                after.events, after.total
            )


def _cm1_input(n):
    return CM1PseudoInput(
        beta0=-2.0, beta1=0.5, sigma_hat=1.0, n=n, x_bar=4.0, ss_x=60.0,
        x_new=5.0, alpha=0.05,
    )


class TestIntegerCheck:
    """Every count argument goes through one check with one wording."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: expand_weights(CategoryTable((CategoryRow(1, 2, 1),)), 0),
             "weight factor must be an integer >= 1, got 0"),
            (lambda: ScenarioSpec(PointRisk(0.5), sample_size=True),
             "sample_size must be an integer >= 1, got True"),
            (lambda: ScenarioSpec(PointRisk(0.5), 2, repeats=0),
             "repeats must be an integer >= 1, got 0"),
            (lambda: exact_coverage(10.0, 0.2, 0.95),
             "n must be an integer >= 1, got 10.0"),
            (lambda: exact_coverage(0, 0.2, 0.95),
             "n must be an integer >= 1, got 0"),
            (lambda: expand_weights(CategoryTable((CategoryRow(1, 2, 1),)), True),
             "weight factor must be an integer >= 1, got True"),
            (lambda: _cm1_input(1), "n must be an integer >= 2, got 1"),
            (lambda: _cm1_input(3.0), "n must be an integer >= 2, got 3.0"),
            (lambda: student_t_quantile(0.9, 0),
             "degrees of freedom must be an integer >= 1, got 0"),
            (lambda: student_t_quantile(0.9, True),
             "degrees of freedom must be an integer >= 1, got True"),
        ],
    )
    def test_message_and_type(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_accepts_the_minimum(self):
        assert _cm1_input(2).n == 2
        assert exact_coverage(1, 0.5, 0.95).coverage == 1.0
