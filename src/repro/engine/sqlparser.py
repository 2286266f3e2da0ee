"""Tokenizer and recursive-descent parser for subjective SQL.

The dialect is the single-block select-from-where language of the paper
(Section 2) with the standard extras the experiments need:

.. code-block:: sql

    SELECT * FROM Hotels
    WHERE price_pn < 150 AND city = 'london'
      AND "has really clean rooms" AND "is a romantic getaway"
    ORDER BY price_pn ASC
    LIMIT 10

* double-quoted strings inside WHERE are *subjective predicates*;
* single-quoted strings are ordinary text literals;
* AND / OR / NOT with the usual precedence (NOT > AND > OR), parentheses;
* comparisons =, !=, <>, <, <=, >, >=; IN (...); BETWEEN x AND y;
* an optional single INNER JOIN with an equality ON condition;
* ORDER BY one column ASC/DESC and LIMIT.

Identifiers may be qualified (``h.price_pn``) and tables may be aliased
(``FROM Hotels h``).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from repro.engine.executor import JoinClause, OrderBy, SelectStatement
from repro.engine.expressions import (
    BetweenExpression,
    ColumnReference,
    ComparisonExpression,
    Expression,
    InExpression,
    Literal,
    NotExpression,
    SubjectivePredicate,
    conjunction,
    disjunction,
)
from repro.errors import ParseError

_TOKEN_SPEC = [
    ("WS", r"\s+"),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("DQSTRING", r'"(?:[^"\\]|\\.)*"'),
    ("SQSTRING", r"'(?:[^'\\]|\\.)*'"),
    ("OP", r"<=|>=|!=|<>|=|<|>"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("STAR", r"\*"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "in", "between", "join",
    "on", "order", "by", "asc", "desc", "limit", "true", "false", "null",
    "inner",
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str
    value: str
    position: int


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", position)
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "WS":
            if kind == "IDENT" and value.lower() in _KEYWORDS:
                tokens.append(Token("KEYWORD", value.lower(), position))
            else:
                tokens.append(Token(kind, value, position))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    # ------------------------------------------------------------ plumbing
    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query", len(self._source))
        self._index += 1
        return token

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._advance()
        if token.kind != "KEYWORD" or token.value != keyword:
            raise ParseError(f"expected {keyword.upper()!r}, got {token.value!r}",
                             token.position)
        return token

    def _match_keyword(self, *keywords: str) -> Token | None:
        token = self._peek()
        if token is not None and token.kind == "KEYWORD" and token.value in keywords:
            return self._advance()
        return None

    def _match_kind(self, kind: str) -> Token | None:
        token = self._peek()
        if token is not None and token.kind == kind:
            return self._advance()
        return None

    # ------------------------------------------------------------- grammar
    def parse(self) -> SelectStatement:
        self._expect_keyword("select")
        columns = self._parse_select_list()
        self._expect_keyword("from")
        table, alias = self._parse_table_reference()
        join = self._parse_optional_join()
        where: Expression | None = None
        if self._match_keyword("where"):
            where = self._parse_or()
        order_by = self._parse_optional_order_by()
        limit = self._parse_optional_limit()
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(f"unexpected token {trailing.value!r}", trailing.position)
        return SelectStatement(
            columns=columns,
            table=table,
            alias=alias,
            join=join,
            where=where,
            order_by=order_by,
            limit=limit,
        )

    def _parse_select_list(self) -> list[str] | None:
        if self._match_kind("STAR"):
            return None
        columns = [self._parse_identifier().name]
        while self._match_kind("COMMA"):
            columns.append(self._parse_identifier().name)
        return columns

    def _parse_table_reference(self) -> tuple[str, str | None]:
        token = self._advance()
        if token.kind != "IDENT":
            raise ParseError(f"expected table name, got {token.value!r}", token.position)
        alias = None
        next_token = self._peek()
        if next_token is not None and next_token.kind == "IDENT":
            alias = self._advance().value
        return token.value, alias

    def _parse_optional_join(self) -> JoinClause | None:
        saw_inner = self._match_keyword("inner")
        if not self._match_keyword("join"):
            if saw_inner:
                raise ParseError("expected JOIN after INNER",
                                 saw_inner.position)
            return None
        table, alias = self._parse_table_reference()
        self._expect_keyword("on")
        left = self._parse_identifier()
        operator = self._advance()
        if operator.kind != "OP" or operator.value != "=":
            raise ParseError("JOIN conditions must be equalities", operator.position)
        right = self._parse_identifier()
        return JoinClause(table=table, alias=alias, left=left, right=right)

    def _parse_optional_order_by(self) -> OrderBy | None:
        if not self._match_keyword("order"):
            return None
        self._expect_keyword("by")
        column = self._parse_identifier()
        descending = False
        if self._match_keyword("desc"):
            descending = True
        else:
            self._match_keyword("asc")
        return OrderBy(column=column, descending=descending)

    def _parse_optional_limit(self) -> int | None:
        if not self._match_keyword("limit"):
            return None
        token = self._advance()
        if token.kind != "NUMBER":
            raise ParseError("LIMIT expects a number", token.position)
        if not token.value.isdigit():
            raise ParseError(
                f"LIMIT expects a non-negative integer, got {token.value}", token.position
            )
        limit = int(token.value)
        if limit > sys.maxsize:
            raise ParseError(
                f"LIMIT {token.value} exceeds the largest supported limit ({sys.maxsize})",
                token.position,
            )
        return limit

    # ------------------------------------------------------ where grammar
    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._match_keyword("or"):
            operands.append(self._parse_and())
        return disjunction(operands)

    def _parse_and(self) -> Expression:
        operands = [self._parse_not()]
        while self._match_keyword("and"):
            operands.append(self._parse_not())
        return conjunction(operands)

    def _parse_not(self) -> Expression:
        if self._match_keyword("not"):
            return NotExpression(self._parse_not())
        return self._parse_atom()

    def _parse_atom(self) -> Expression:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of WHERE clause", len(self._source))
        if token.kind == "LPAREN":
            self._advance()
            expression = self._parse_or()
            closing = self._advance()
            if closing.kind != "RPAREN":
                raise ParseError("expected ')'", closing.position)
            return expression
        if token.kind == "DQSTRING":
            self._advance()
            return SubjectivePredicate(self._unquote(token.value))
        if token.kind == "KEYWORD" and token.value in ("true", "false"):
            self._advance()
            return Literal(token.value == "true")
        return self._parse_condition()

    def _parse_condition(self) -> Expression:
        column = self._parse_identifier()
        if self._match_keyword("in"):
            return self._parse_in(column)
        if self._match_keyword("between"):
            low = self._parse_literal_value()
            self._expect_keyword("and")
            high = self._parse_literal_value()
            return BetweenExpression(column, low, high)
        operator = self._advance()
        if operator.kind != "OP":
            raise ParseError(
                f"expected comparison operator, got {operator.value!r}",
                operator.position,
            )
        op = "!=" if operator.value == "<>" else operator.value
        value = self._parse_literal_value()
        return ComparisonExpression(column, op, Literal(value))

    def _parse_in(self, column: ColumnReference) -> Expression:
        opening = self._advance()
        if opening.kind != "LPAREN":
            raise ParseError("IN expects a parenthesised list", opening.position)
        values = [self._parse_literal_value()]
        while self._match_kind("COMMA"):
            values.append(self._parse_literal_value())
        closing = self._advance()
        if closing.kind != "RPAREN":
            raise ParseError("expected ')' to close IN list", closing.position)
        return InExpression(column, tuple(values))

    def _parse_identifier(self) -> ColumnReference:
        token = self._advance()
        if token.kind != "IDENT":
            raise ParseError(f"expected identifier, got {token.value!r}", token.position)
        if "." in token.value:
            qualifier, name = token.value.split(".", 1)
            return ColumnReference(name=name, qualifier=qualifier)
        return ColumnReference(name=token.value)

    def _parse_literal_value(self):
        token = self._advance()
        if token.kind == "NUMBER":
            value = float(token.value)
            return int(value) if value.is_integer() and "." not in token.value else value
        if token.kind == "SQSTRING":
            return self._unquote(token.value)
        if token.kind == "KEYWORD" and token.value in ("true", "false"):
            return token.value == "true"
        if token.kind == "KEYWORD" and token.value == "null":
            return None
        raise ParseError(f"expected a literal, got {token.value!r}", token.position)

    @staticmethod
    def _unquote(quoted: str) -> str:
        body = quoted[1:-1]
        return body.replace('\\"', '"').replace("\\'", "'")


def parse_query(sql: str) -> SelectStatement:
    """Parse a subjective-SQL string into a :class:`SelectStatement`."""
    tokens = _lex(sql)
    if not tokens:
        raise ParseError("empty query")
    return _Parser(tokens, sql).parse()
