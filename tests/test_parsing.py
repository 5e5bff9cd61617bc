import random
from fractions import Fraction

import pytest
from conftest import reference_product

from cliffinv import LexError, Multivector, ParseError, Signature, parse_expression, tokenize
from cliffinv import parsing
from cliffinv.parsing import MAX_POWER_BITS, parse
from cliffinv.verify import all_signatures


S01 = Signature(0, 1)
S02 = Signature(0, 2)


def ev(text, sig):
    return parse_expression(text, sig)


class TestTokenize:
    def test_kinds_and_offsets(self):
        tokens = tokenize("2 + 3*e1 - e12", 2)
        assert [(t.kind, t.lexeme, t.offset) for t in tokens] == [
            ("int", "2", 0),
            ("plus", "+", 2),
            ("int", "3", 4),
            ("star", "*", 5),
            ("blade", "e1", 6),
            ("minus", "-", 9),
            ("blade", "e12", 11),
            ("end", "", 14),
        ]

    def test_rational_lexes_as_int_slash_int(self):
        kinds = [t.kind for t in tokenize("3/4", 1)]
        assert kinds == ["int", "slash", "int", "end"]

    def test_non_ascending_blade(self):
        with pytest.raises(LexError) as err:
            tokenize("e21", 5)
        assert err.value.offset == 2

    def test_repeated_blade_digit(self):
        with pytest.raises(LexError) as err:
            tokenize("e11", 5)
        assert err.value.offset == 2

    def test_generator_out_of_range(self):
        with pytest.raises(LexError) as err:
            tokenize("e6", 5)
        assert err.value.offset == 1
        with pytest.raises(LexError):
            tokenize("e1", 0)

    def test_bare_e(self):
        with pytest.raises(LexError) as err:
            tokenize("2 + e", 3)
        assert err.value.offset == 4

    def test_unknown_character(self):
        with pytest.raises(LexError) as err:
            tokenize("2 $ 3", 3)
        assert err.value.offset == 2

    def test_only_ascii_digits(self):
        # str.isdigit() accepts superscripts and other scripts' digits too.
        with pytest.raises(LexError) as err:
            tokenize("2²", 1)
        assert (err.value.message, err.value.offset) == ("unknown character '²'", 1)
        with pytest.raises(LexError) as err:
            tokenize("e١ + ٣", 1)
        assert (err.value.message, err.value.offset) == ("blade symbol needs at least one generator index", 0)
        with pytest.raises(LexError) as err:
            tokenize("٣", 1)
        assert err.value.offset == 0

    def test_offsets_stay_inside_input(self):
        for text in ("e21", "e0", "  %", "e9"):
            with pytest.raises(LexError) as err:
                tokenize(text, 5)
            assert 0 <= err.value.offset < len(text)


class TestParseEval:
    def test_blade_product(self):
        assert ev("e1*e2", S02) == Multivector.blade(S02, 0b11)

    def test_reversed_product_picks_up_sign(self):
        assert ev("e2*e1", S02) == Multivector.blade(S02, 0b11, -1)

    def test_blade_literal_equals_spelled_product(self):
        assert ev("e12", S02) == ev("e1*e2", S02)

    def test_square_expands(self):
        assert ev("(2+e1)^2", S01) == Multivector(S01, {0: 5, 1: 4})

    def test_rational_literal(self):
        assert ev("-1/2*e12", S02) == Multivector.blade(S02, 0b11, Fraction(-1, 2))

    def test_integer_division_literal_reduces(self):
        assert ev("6/4", S01) == Multivector.scalar(S01, Fraction(3, 2))

    def test_power_binds_tighter_than_unary_minus(self):
        # -e1^2 reads -(e1^2) = -1 when e1 squares to +1
        assert ev("-e1^2", S01) == Multivector.scalar(S01, -1)
        assert ev("(-e1)^2", S01) == Multivector.scalar(S01, 1)

    def test_unary_minus_binds_tighter_than_star(self):
        assert ev("-2*e1", S01) == Multivector.blade(S01, 1, -2)
        assert ev("2*-3", S01) == Multivector.scalar(S01, -6)

    def test_star_binds_tighter_than_plus(self):
        assert ev("1+2*e1", S01) == Multivector(S01, {0: 1, 1: 2})

    def test_left_associative_subtraction(self):
        assert ev("1-2-3", S01) == Multivector.scalar(S01, -4)

    def test_chained_powers_left_associative(self):
        assert ev("2^3^2", S01) == Multivector.scalar(S01, 64)

    def test_scalar_only_algebra(self):
        assert ev("5", Signature(0, 0)) == Multivector.scalar(Signature(0, 0), 5)

    def test_whitespace_insensitive(self):
        assert ev(" 1 +   2*e1 ", S01) == ev("1+2*e1", S01)


class TestPowerBudget:
    """A power k on b-bit coefficients in n generators is refused when k * (b + n) > MAX_POWER_BITS."""

    def test_edge_of_the_budget(self):
        s00 = Signature(0, 0)
        k = MAX_POWER_BITS // 2  # 2 has a 2-bit numerator
        assert ev(f"2^{k}", s00) == Multivector.scalar(s00, 2**k)
        with pytest.raises(ValueError, match="power too large"):
            ev(f"2^{k + 1}", s00)
        # The n added per product counts: the same power is refused at n = 5.
        with pytest.raises(ValueError, match="power too large"):
            ev(f"2^{k}", Signature(0, 5))

    def test_denominators_count(self):
        s00 = Signature(0, 0)
        k = MAX_POWER_BITS // 10  # 1000 has a 10-bit denominator
        assert ev(f"(1/1000)^{k}", s00) == Multivector.scalar(s00, Fraction(1, 1000**k))
        with pytest.raises(ValueError, match="power too large"):
            ev(f"(1/1000)^{k + 1}", s00)

    def test_zero_exponent_costs_nothing(self):
        assert ev("(3+e1)^0", S01) == Multivector.unit(S01)


class TestParseErrors:
    def expect_error(self, text, n=2):
        with pytest.raises(ParseError) as err:
            parse(tokenize(text, n))
        assert 0 <= err.value.offset <= len(text)
        return err.value

    def test_trailing_operator(self):
        err = self.expect_error("2+")
        assert err.offset == 2

    def test_missing_close_paren(self):
        err = self.expect_error("(1+e1")
        assert err.offset == 5
        assert "rparen" in err.expected

    def test_juxtaposition_is_rejected(self):
        err = self.expect_error("2 e1")
        assert err.offset == 2

    def test_slash_needs_integer(self):
        err = self.expect_error("2/e1")
        assert err.offset == 2

    def test_zero_denominator(self):
        err = self.expect_error("3/0")
        assert err.offset == 2

    def test_exponent_must_be_integer_literal(self):
        err = self.expect_error("e1^-2")
        assert err.offset == 3

    def test_leading_operator(self):
        err = self.expect_error("*2")
        assert err.offset == 0
        assert "int" in err.expected

    def test_division_is_not_an_operator(self):
        err = self.expect_error("(1+e1)/2")
        assert err.offset == 6


class TestRoundTrip:
    def test_canonical_text_reparses_exactly(self):
        rng = random.Random(15)
        for sig in all_signatures(0):
            for _ in range(20):
                m = Multivector.random(sig, rng.randrange(10**6), 9)
                if rng.random() < 0.4:
                    m = m.scale(Fraction(1, rng.randint(2, 7)))
                assert ev(str(m), sig) == m

    def test_edge_forms(self):
        for text, sig in (("0", S02), ("-5/3", S02), ("-e12", S02), ("1", S02)):
            m = ev(text, sig)
            assert str(m) == text


class TestPostfixProgram:
    def test_steps(self):
        assert parse(tokenize("2 + 3/4*e12", 2)) == [
            ("num", (2, 1)),
            ("num", (3, 4)),
            ("blade", 0b11),
            ("*", None),
            ("+", None),
        ]

    def test_unary_minus_folds_into_a_literal_but_not_across_power(self):
        assert parse(tokenize("-4", 1)) == [("num", (-4, 1))]
        assert parse(tokenize("-2^2", 1)) == [("num", (2, 1)), ("^", 2), ("neg", None)]
        assert ev("-2^2", S01) == Multivector.scalar(S01, -4)
        assert ev("(-2)^2", S01) == Multivector.scalar(S01, 4)

    def test_unary_minus_on_a_non_literal(self):
        assert parse(tokenize("-e1", 1)) == [("blade", 1), ("neg", None)]
        assert ev("-(1+e1)", S01) == Multivector(S01, {0: -1, 1: -1})
        assert ev("--e12", S02) == Multivector.blade(S02, 0b11)

    def test_blade_outside_the_signature_is_refused(self):
        # tokenize checks blades against n; a program run in a smaller algebra is refused here
        with pytest.raises(ValueError, match=r"^blade mask 4 outside the Cl\(0,2\) basis$"):
            parsing.evaluate(parse(tokenize("e3", 3)), S02)

    def test_syntax_errors_come_before_arithmetic(self, monkeypatch):
        def no_arithmetic(program, sig):
            raise AssertionError("evaluated before the whole input parsed")

        monkeypatch.setattr(parsing, "evaluate", no_arithmetic)
        text = "e1^100000 +"
        with pytest.raises(ParseError) as err:
            ev(text, S01)
        assert err.value.offset == len(text)
        with pytest.raises(ParseError) as err:
            ev("(1+e1+e2)^4000 )", S02)
        assert err.value.offset == 15


def _tree(rng, n, depth):
    """A random expression tree: nested tuples over num, blade, neg, pow and + - *."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        if n and rng.random() < 0.5:
            return ("blade", sum(1 << i for i in rng.sample(range(n), rng.randint(1, n))))
        return ("num", Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))))
    if r < 0.4:
        return ("neg", _tree(rng, n, depth - 1))
    if r < 0.5:
        return ("pow", _tree(rng, n, depth - 1), rng.randint(0, 3))
    return (rng.choice("+-*"), _tree(rng, n, depth - 1), _tree(rng, n, depth - 1))


def _render(rng, node):
    """Text for node and its binding level: 0 sum, 1 product, 2 unary, 3 power, 4 atom."""

    def wrap(child, level):
        text, got = _render(rng, child)
        return text if got >= level and rng.random() > 0.15 else f"({text})"

    op = node[0]
    if op == "num":
        v = node[1]
        text = str(abs(v.numerator)) if v.denominator == 1 else f"{abs(v.numerator)}/{v.denominator}"
        return (f"-{text}", 2) if v < 0 else (text, 4)
    if op == "blade":
        return "e" + "".join(str(i + 1) for i in range(5) if node[1] >> i & 1), 4
    if op == "neg":
        return "-" + wrap(node[1], 2), 2
    if op == "pow":
        return f"{wrap(node[1], 3)}^{node[2]}", 3
    level = 0 if op in "+-" else 1
    space = rng.choice(("", " "))
    return f"{wrap(node[1], level)}{space}{op}{space}{wrap(node[2], level + 1)}", level


def _reference(node, sig):
    """Recursive evaluation with Multivector sums and the term-by-term reference product."""
    op = node[0]
    if op == "num":
        return Multivector.scalar(sig, node[1])
    if op == "blade":
        return Multivector.blade(sig, node[1])
    if op == "neg":
        return -_reference(node[1], sig)
    if op == "pow":
        base, out = _reference(node[1], sig), Multivector.unit(sig)
        for _ in range(node[2]):
            out = reference_product(out, base)
        return out
    left, right = _reference(node[1], sig), _reference(node[2], sig)
    return left + right if op == "+" else left - right if op == "-" else reference_product(left, right)


class TestDifferential:
    def test_random_trees_match_recursive_evaluation(self):
        rng = random.Random(20)
        texts = []
        for sig in all_signatures(0):
            for _ in range(40):
                node = _tree(rng, sig.n, rng.randint(1, 5))
                text, _ = _render(rng, node)
                texts.append(text)
                assert ev(text, sig) == _reference(node, sig), f"{text!r} in {sig}"
        # The draw covers nested parentheses, chains of unary minus, rationals and every operator.
        for form in ("((", "--", "/", "^", "+", "*", "e"):
            assert any(form in t for t in texts), form
