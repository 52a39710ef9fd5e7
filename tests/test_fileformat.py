import sys
from pathlib import Path

import pytest

from tabalg import ParseError, bundled, parse, parse_element_expr, parse_partial, serialize
from tabalg.bundled import AUXILIARY, BUNDLED, PARTIAL, data_text

MINI = """\
algebra mini
element g degree 1 dual g2
element g2 degree 1 dual g
product g g = g2
product g g2 = 1
product g2 g2 = g
"""


def elem(A, text):
    return parse_element_expr(text, A.basis)


class TestParse:
    def test_product_line_with_coefficients(self, C7):
        # "product b5 b5 = 1 + x9 + x10 + b5" gives unit entries
        row = dict(C7.constants.rows[C7.basis.index_of("b5")][C7.basis.index_of("b5")])
        names = {C7.basis.name(m): v for m, v in row.items()}
        assert names == {"1": 1, "x9": 1, "x10": 1, "b5": 1}

    def test_identity_row_from_file(self):
        A = parse(MINI + "product 1 g = g\n")
        assert A.multiply(elem(A, "1"), elem(A, "g")) == elem(A, "g")

    def test_multiplicity_coefficients(self, B32):
        idx = B32.basis.index_of
        row = dict(B32.constants.rows[idx("y15")][idx("y15bar")])
        named = {B32.basis.name(m): v for m, v in row.items()}
        assert named == {"1": 1, "b5": 3, "c5": 3, "c8": 5, "b8": 5, "x9": 6, "x10": 6}

    def test_symmetry_completion_fills_dual_pairs(self):
        # mini file omits nothing, but B32 omits all conjugate rows
        A = parse(data_text("B32"))
        idx = A.basis.index_of
        row = dict(A.constants.rows[idx("b3bar")][idx("x6bar")])
        named = {A.basis.name(m): v for m, v in row.items()}
        assert named == {"c3bar": 1, "y15bar": 1}

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse(MINI + "produkt g g = g2\n")
        assert "line 7" in str(err.value)

    def test_degree_sum_violation(self):
        bad = MINI.replace("product g g = g2", "product g g = g2 + g")
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert "degree sum" in str(err.value)

    def test_unknown_element_name(self):
        with pytest.raises(ParseError) as err:
            parse(MINI + "product g h = g\n")
        assert "unknown element" in str(err.value)

    def test_conflicting_redefinition(self):
        with pytest.raises(ParseError) as err:
            parse(MINI + "product g g = 1\n")
        assert "conflicting" in str(err.value)

    def test_conflict_with_symmetry_derived_row(self):
        text = """\
algebra bad
element a degree 1 dual abar
element abar degree 1 dual a
product a a = abar
product a abar = 1
product abar abar = abar
"""
        # every product is listed, but the dual image of a*a is abar*abar = a,
        # which clashes with the explicit line; a partial parse rejects it too
        for reader in (parse, parse_partial):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert str(err.value) == "line 4: conflicting value for product abar abar (also given at line 6)"

    def test_line_that_is_its_own_dual_image_must_be_closed_under_duals(self):
        # a*a is its own dual image, 1 + bbar, which differs from the line
        text = """\
algebra self
element a degree 2 dual a
element b degree 3 dual bbar
element bbar degree 3 dual b
product a a = 1 + b
"""
        for reader in (parse, parse_partial):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert str(err.value) == "line 5: product a a differs from its own dual image 1 + bbar"

    def test_derivable_pair_may_be_omitted(self):
        # g2*g2 is the dual image of g*g, so its line is redundant
        A = parse(MINI.replace("product g2 g2 = g\n", ""))
        assert A.multiply(elem(A, "g2"), elem(A, "g2")) == elem(A, "g")

    def test_incomplete_table_rejected(self):
        # g*g2 is its own dual-image pair, so nothing can supply it
        with pytest.raises(ParseError) as err:
            parse(MINI.replace("product g g2 = 1\n", ""))
        assert "incomplete" in str(err.value)

    @pytest.mark.parametrize("text, fragment, line_no", [
        (MINI.replace("= g2\n", "= g2 +\n"), "trailing '+' on right-hand side", 4),
        (MINI.replace("= g2\n", "= + g2\n"), "empty term on right-hand side", 4),
        # a line with two faults reports the leftmost one
        (MINI.replace("= g2\n", "= zz +\n"), "unknown element name 'zz'", 4),
        (MINI.replace("= g2\n", "= x g2\n"), "bad coefficient 'x'", 4),
        # numbers are ASCII digits: no '_' separator, no sign, no other script's digits
        (MINI.replace("= g2\n", "= 1_0 g2\n"), "bad coefficient '1_0'", 4),
        (MINI.replace("g2 = 1", "g2 = +1 1"), "bad coefficient '+1'", 5),
        (MINI.replace("= g2\n", "= 2 3 g2\n"), "malformed term '2 3 g2'", 4),
        (MINI.replace("= g2\n", "= 0 g2\n"), "coefficient must be positive, got 0", 4),
        (MINI + "algebra other\n", "duplicate algebra header", 7),
        (MINI.replace("algebra mini", "algebra mini extra"), "expected: algebra <name>", 1),
        (MINI + "element h degree 1\n", "expected: element <name> degree <int> dual <name>", 7),
        (MINI + "element 9h degree 1 dual 9h\n", "bad element name '9h'", 7),
        (MINI + "element h degree x dual h\n", "bad degree 'x'", 7),
        (MINI + "element a degree \u0663 dual a\n", "bad degree '\u0663'", 7),
        (MINI + "product g g2 1\n", "expected: product <name> <name> = <expr>", 7),
        (MINI.replace("algebra mini\n", ""), "missing 'algebra <name>' header", None),
        (MINI + "element g degree 1 dual g2\n", "duplicate element 'g'", 7),
        (MINI + "element h degree 0 dual h\n", "element 'h' has degree 0", 7),
        (MINI + "element h degree 1 dual hbar\n", "unknown dual name 'hbar'", 7),
        # what the basis rejects is reported at the offending element line
        (MINI + "element h degree 1 dual g\n", "dual pairing of 'h' is not an involution", 7),
        (MINI + "element a degree 2 dual b\nelement b degree 3 dual a\n", "'a' and its dual differ in degree", 7),
        # degrees are read from the element lines; no directive restates them
        (MINI.replace("algebra mini\n", "algebra mini\nassume no-degree-1 no-degree-2\n"),
         "unknown directive 'assume'", 2),
        (MINI + "product 1 g = g2\n", "identity product must reproduce the other factor", 7),
        # g*g2 is its own dual image, so its row must be closed under duals
        (MINI.replace("g2 = 1", "g2 = g"), "product g g2 differs from its own dual image g2", 5),
        # faults on several lines: line structure first, then elements, then
        # products in line order
        (MINI + "element g degree 1 dual g2\nproduct g g2 1\n", "expected: product <name> <name> = <expr>", 8),
        (MINI.replace("= g2\n", "= zz\n") + "element h degree 1 dual hbar\n", "unknown dual name 'hbar'", 7),
        (MINI.replace("= g2\n", "= g2 + g\n").replace("g2 = 1", "g2 = g"), "degree sum 2 does not match 1*1=1", 4),
        (MINI.replace("= g2\n", "= x g2\n") + "bogus\n", "unknown directive 'bogus'", 7),
    ])
    def test_rejections(self, text, fragment, line_no):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"line {line_no}: " if line_no else fragment)

    @pytest.mark.parametrize("text, plain", [
        (MINI.replace("\n", "\r\n"), MINI),
        (MINI.replace(" ", "\t"), MINI),
        (MINI.replace("= g2\n", "= g2# note\n"), MINI),
        (MINI.replace("= g2\n", "= 1 g2\n"), MINI),
        (MINI.replace("= g2\n", "= 01 g2\n"), MINI),
        (MINI.replace("product g g2 = 1", "product g2 g = 1"), MINI),
        # a name repeated on one right-hand side: its coefficients add
        (data_text("C7").replace("= c8 + b8 + x9 + b5 + 2 x10", "= c8 + x10 + b8 + x9 + b5 + x10"), data_text("C7")),
    ], ids=["crlf", "tabs", "comment-after-token", "explicit-1", "leading-zero", "reversed-factors", "repeated-name"])
    def test_spellings_of_one_table(self, text, plain):
        assert text != plain
        A, B = parse(text), parse(plain)
        assert (A.name, A.basis, A.constants.rows) == (B.name, B.basis, B.constants.rows)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    @pytest.mark.parametrize("line, what", [
        ("element h degree {} dual h\n", "degree"),
        ("product g g = {} g2\n", "coefficient"),
    ])
    def test_number_longer_than_int_converts(self, line, what):
        # int() refuses a numeral of more than 4300 digits with a ValueError
        with pytest.raises(ParseError, match=f"^line 7: bad {what} '1{{5000}}'$"):
            parse(MINI + line.format("1" * 5000))

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_only_at_newlines(self, char):
        # str.splitlines also ends a line at each of these
        text = data_text("C7").replace("# ", f"# see{char}next ", 1)
        assert serialize(parse(text)) == serialize(parse(data_text("C7")))
        with pytest.raises(ParseError, match=f"^line {text.count(chr(10)) + 1}: unknown directive 'bogus'$"):
            parse(text + "bogus\n")

    def test_partial_parse_allows_holes(self):
        name, basis, products = parse_partial(MINI.replace("product g g2 = 1\n", ""))
        assert name == "mini"
        assert basis.size == 3
        assert (1, 1) in products and (1, 2) not in products
        # identity rows are implied, never returned
        assert set(products) == {(1, 1), (2, 2)}


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED + AUXILIARY)
    def test_parse_serialize_parse_is_identity(self, name):
        first = parse(data_text(name))
        text1 = serialize(first)
        second = parse(text1)
        assert second.basis == first.basis
        for i in range(first.size):
            for j in range(first.size):
                for m in range(first.size):
                    assert first.constants.rows[i][j].get(m, 0) == second.constants.rows[i][j].get(m, 0)
        # canonical output is a fixed point byte for byte
        assert serialize(second) == text1

    def test_serializer_is_deterministic(self, B22):
        assert serialize(B22) == serialize(B22)


@pytest.mark.parametrize("name", BUNDLED + PARTIAL)
def test_shipped_data_meets_the_paper_hypothesis(name):
    # no nonidentity element of degree 1 and no element of degree 2, read
    # from the degrees each file lists
    _, basis, _ = parse_partial(data_text(name))
    assert all(e.degree not in (1, 2) for e in basis.elements[1:])


def test_shipped_files_are_exactly_the_listed_names():
    # an unlisted file is dead weight and a listed one with no file fails only
    # when it is first loaded
    shipped = sorted(f.name for f in (Path(bundled.__file__).parent / "data").iterdir())
    assert shipped == sorted(f"{name}.alg" for name in BUNDLED + AUXILIARY + PARTIAL)


class TestElementExpr:
    def test_expression_with_coefficients(self, B32):
        x = parse_element_expr("1 + 3 b5 + x9", B32.basis)
        idx = B32.basis.index_of
        assert x == {0: 1, idx("b5"): 3, idx("x9"): 1}

    def test_bad_token(self, B32):
        with pytest.raises(ParseError):
            parse_element_expr("b5 + + x9", B32.basis)
