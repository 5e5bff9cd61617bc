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
products are spelled out with '*'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .blades import Signature
from .errors import LexError, ParseError
from .multivector import Multivector

# Budget for `^`, in bits: a power with exponent k of a base whose
# numerators and denominators have at most b bits is refused, before it is
# computed, when k * (b + n) exceeds it.  For integer coefficients that
# bounds every coefficient of the result (each of the k - 1 products sums
# 2^n products of entries, adding at most n bits to their sizes); with
# rational ones it is an estimate on the same scale.  10^5000 needs at most
# 5000 * (4 + 5) = 45000.
MAX_POWER_BITS = 50_000


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


def tokenize(text: str, n: int) -> list[Token]:
    """Lex an expression for an algebra with n generators."""
    if n > 5:
        raise ValueError("at most 5 generators are supported")
    tokens: list[Token] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < length and text[i].isdigit():
                i += 1
            tokens.append(Token("int", text[start:i], start))
            continue
        if ch == "e":
            start = i
            i += 1
            prev = 0
            digits = ""
            while i < length and text[i].isdigit():
                d = int(text[i])
                if not 1 <= d <= n:
                    raise LexError(f"generator index {d} outside 1..{n}", i)
                if d == prev:
                    raise LexError(f"repeated generator index {d} in blade symbol", i)
                if d < prev:
                    raise LexError("blade indices must be strictly ascending", i)
                prev = d
                digits += text[i]
                i += 1
            if not digits:
                raise LexError("blade symbol needs at least one generator index", start)
            tokens.append(Token("blade", text[start:i], start))
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, i))
            i += 1
            continue
        raise LexError(f"unknown character {ch!r}", i)
    tokens.append(Token("end", "", length))
    return tokens


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class BladeLit:
    mask: int


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Power:
    base: "ExprAst"
    exponent: int


ExprAst = Union[Num, BladeLit, Neg, BinOp, Power]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.lexeme or 'end of input'!r}",
                tok.offset,
                frozenset({kind}),
            )
        return self.advance()

    def parse_expr(self) -> ExprAst:
        node = self.parse_term()
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            right = self.parse_term()
            node = BinOp("+" if op.kind == "plus" else "-", node, right)
        return node

    def parse_term(self) -> ExprAst:
        node = self.parse_unary()
        while self.peek().kind == "star":
            self.advance()
            node = BinOp("*", node, self.parse_unary())
        return node

    def parse_unary(self) -> ExprAst:
        if self.peek().kind == "minus":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> ExprAst:
        node = self.parse_atom()
        while self.peek().kind == "caret":
            self.advance()
            tok = self.expect("int")
            node = Power(node, int(tok.lexeme))
        return node

    def parse_atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.lexeme)
            if self.peek().kind == "slash":
                self.advance()
                den_tok = self.expect("int")
                denominator = int(den_tok.lexeme)
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", den_tok.offset)
                return Num(Fraction(numerator, denominator))
            return Num(Fraction(numerator))
        if tok.kind == "blade":
            self.advance()
            mask = 0
            for d in tok.lexeme[1:]:
                mask |= 1 << (int(d) - 1)
            return BladeLit(mask)
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen")
            return node
        raise ParseError(
            f"expected a value, found {tok.lexeme or 'end of input'!r}",
            tok.offset,
            frozenset({"int", "blade", "lparen", "minus"}),
        )


def parse(tokens: list[Token]) -> ExprAst:
    """Parse a token stream produced by tokenize into an AST."""
    parser = _Parser(tokens)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(
            f"unexpected {tok.lexeme!r} after expression",
            tok.offset,
            frozenset({"plus", "minus", "star", "caret", "end"}),
        )
    return node


def evaluate(ast: ExprAst, sig: Signature) -> Multivector:
    """Evaluate an AST in the given algebra."""
    if isinstance(ast, Num):
        return Multivector.scalar(sig, ast.value)
    if isinstance(ast, BladeLit):
        return Multivector.blade(sig, ast.mask)
    if isinstance(ast, Neg):
        return -evaluate(ast.operand, sig)
    if isinstance(ast, Power):
        base = evaluate(ast.base, sig)
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in base.items()), default=0
        )
        need = ast.exponent * (bits + sig.n)
        if need > MAX_POWER_BITS:
            raise ValueError(
                f"power too large: ^{ast.exponent} on {bits}-bit coefficients could need "
                f"{need} bits, over the {MAX_POWER_BITS}-bit budget"
            )
        return base ** ast.exponent
    if isinstance(ast, BinOp):
        # A flat sum or product is a left spine of BinOps: walk it in a loop.
        spine = []
        while isinstance(ast, BinOp):
            spine.append(ast)
            ast = ast.left
        acc = evaluate(ast, sig)
        for node in reversed(spine):
            right = evaluate(node.right, sig)
            acc = acc + right if node.op == "+" else acc - right if node.op == "-" else acc * right
        return acc
    raise TypeError(f"not an expression node: {ast!r}")


def parse_expression(text: str, sig: Signature) -> Multivector:
    """Convenience wrapper: tokenize, parse, and evaluate in one call.

    Both recurse per level of nesting (parentheses, unary minus, a chain of
    powers), so input past Python's recursion limit is refused with a
    ValueError; the terms of a sum or product are walked in a loop."""
    try:
        return evaluate(parse(tokenize(text, sig.n)), sig)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
