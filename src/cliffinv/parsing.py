"""Expression front end: text like "2 + 3*e1 - (1/2)*e12" to multivectors.

Grammar, loosest to tightest binding:

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' INTEGER)*
    atom   := INTEGER ('/' INTEGER)? | BLADE | '(' expr ')'

Binary operators associate left.  '/' is only the separator inside a
rational literal, never an operator: division of multivectors is what the
inverse computes, and giving it syntax would hide the left/right ambiguity.
Blade symbols must be written ascending (e13, never e31); reordered
products are spelled out with '*'.  Digits are ASCII 0-9 only.

`parse` turns the tokens into a flat postfix program, a list of (op, arg)
steps: ("num", (numerator, denominator)), ("blade", mask), ("neg", None),
("+" | "-" | "*", None) and ("^", exponent).  `evaluate` runs it on a stack,
so every syntax error is raised before any arithmetic is done.
"""

from __future__ import annotations

from typing import NamedTuple

from .blades import BLADE_TEXT, DIGITS, MAX_GENERATORS, Signature
from .errors import LexError, ParseError
from .multivector import MAX_POWER_BITS, Multivector


class Token(NamedTuple):
    kind: str  # int, slash, blade, plus, minus, star, caret, lparen, rparen, end
    lexeme: str
    offset: int


_SINGLE = {
    "/": "slash",
    "+": "plus",
    "-": "minus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
}

# Builds a Token from a (kind, lexeme, offset) tuple without the Python-level
# NamedTuple.__new__, which costs about twice as much per token.
_token = tuple.__new__

_BLADE_MASK = {name: mask for mask, name in enumerate(BLADE_TEXT)}

Program = list[tuple[str, object]]  # (op, arg) steps, see the module docstring


def tokenize(text: str, n: int) -> list[Token]:
    """Lex an expression for an algebra with n generators."""
    if n > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators are supported")
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch in DIGITS:
            start = i
            i += 1
            while i < length and text[i] in DIGITS:
                i += 1
            append(_token(Token, ("int", text[start:i], start)))
        elif ch == "e":
            start = i
            i += 1
            prev = 0
            while i < length and text[i] in DIGITS:
                d = int(text[i])
                if not 1 <= d <= n:
                    raise LexError(f"generator index {d} outside 1..{n}", i)
                if d == prev:
                    raise LexError(f"repeated generator index {d} in blade symbol", i)
                if d < prev:
                    raise LexError("blade indices must be strictly ascending", i)
                prev = d
                i += 1
            if not prev:
                raise LexError("blade symbol needs at least one generator index", start)
            append(_token(Token, ("blade", text[start:i], start)))
        elif ch in _SINGLE:
            append(_token(Token, (_SINGLE[ch], ch, i)))
            i += 1
        elif ch.isspace():
            i += 1
        else:
            raise LexError(f"unknown character {ch!r}", i)
    append(_token(Token, ("end", "", length)))
    return tokens


class _Parser:
    """Recursive descent over the tokens, appending postfix steps to `program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.program: Program = []

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.lexeme or 'end of input'!r}",
                tok.offset,
                frozenset({kind}),
            )
        self.pos += 1
        return tok

    def parse_expr(self) -> None:
        self.parse_term()
        while (kind := self.tokens[self.pos].kind) in ("plus", "minus"):
            self.pos += 1
            self.parse_term()
            self.program.append(("+" if kind == "plus" else "-", None))

    def parse_term(self) -> None:
        self.parse_unary()
        while self.tokens[self.pos].kind == "star":
            self.pos += 1
            self.parse_unary()
            self.program.append(("*", None))

    def parse_unary(self) -> None:
        """unary, with the power loop inlined: one frame less per level of nesting."""
        if self.tokens[self.pos].kind != "minus":
            self.parse_atom()
            while self.tokens[self.pos].kind == "caret":
                self.pos += 1
                self.program.append(("^", int(self.expect("int").lexeme)))
            return
        self.pos += 1
        program = self.program
        start = len(program)
        self.parse_unary()
        # A negated bare literal becomes a negative literal; a power keeps its
        # own step after the literal, so -2^2 still reads -(2^2).
        if len(program) == start + 1 and program[start][0] == "num":
            num, den = program[start][1]
            program[start] = ("num", (-num, den))
        else:
            program.append(("neg", None))

    def parse_atom(self) -> None:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "int":
            self.pos += 1
            numerator = int(tok.lexeme)
            denominator = 1
            if self.tokens[self.pos].kind == "slash":
                self.pos += 1
                den_tok = self.expect("int")
                denominator = int(den_tok.lexeme)
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", den_tok.offset)
            self.program.append(("num", (numerator, denominator)))
        elif kind == "blade":
            self.pos += 1
            self.program.append(("blade", _BLADE_MASK[tok.lexeme]))
        elif kind == "lparen":
            self.pos += 1
            self.parse_expr()
            self.expect("rparen")
        else:
            raise ParseError(
                f"expected a value, found {tok.lexeme or 'end of input'!r}",
                tok.offset,
                frozenset({"int", "blade", "lparen", "minus"}),
            )


def parse(tokens: list[Token]) -> Program:
    """Parse a token stream produced by tokenize into a postfix program."""
    parser = _Parser(tokens)
    parser.parse_expr()
    tok = tokens[parser.pos]
    if tok.kind != "end":
        raise ParseError(
            f"unexpected {tok.lexeme!r} after expression",
            tok.offset,
            frozenset({"plus", "minus", "star", "caret", "end"}),
        )
    return parser.program


def evaluate(program: Program, sig: Signature) -> Multivector:
    """Run a program from parse on a stack of multivectors in the given algebra."""
    term = Multivector._term
    stack: list[Multivector] = []
    for op, arg in program:
        if op == "num":
            num, den = arg
            stack.append(term(sig, 0, num, den))
        elif op == "blade":
            if arg >= sig.dim:
                raise ValueError(f"blade mask {arg} outside the {sig} basis")
            stack.append(term(sig, arg, 1, 1))
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            base = stack[-1]
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in base.items()), default=0)
            need = arg * (bits + sig.n)
            if need > MAX_POWER_BITS:
                raise ValueError(
                    f"power too large: ^{arg} on {bits}-bit coefficients could need "
                    f"{need} bits, over the {MAX_POWER_BITS}-bit budget"
                )
            stack[-1] = base**arg
        else:
            right = stack.pop()
            left = stack[-1]
            stack[-1] = left + right if op == "+" else left - right if op == "-" else left * right
    (value,) = stack
    return value


def parse_expression(text: str, sig: Signature) -> Multivector:
    """Convenience wrapper: tokenize, parse, and evaluate in one call.

    Parsing recurses once per level of nesting (parentheses, unary minus),
    so input past Python's recursion limit is refused with a ValueError;
    sums, products and chains of powers are read in loops, and evaluation
    runs on a stack."""
    try:
        return evaluate(parse(tokenize(text, sig.n)), sig)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
