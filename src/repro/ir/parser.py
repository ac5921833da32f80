"""Textual frontend for the command IR.

The grammar matches the output of :mod:`repro.ir.printer`::

    program  ::= proc*
    proc     ::= "proc" NAME "{" stmt* "}"
    stmt     ::= prim ";" | "call" NAME ";"
               | "choose" "{" stmt* "}" ("or" "{" stmt* "}")+
               | "loop" "{" stmt* "}"
    prim     ::= "skip"
               | NAME "=" "new" NAME
               | NAME "=" NAME
               | NAME "=" NAME "." NAME          (field load)
               | NAME "." NAME "=" NAME          (field store)
               | NAME "." NAME "(" ")"           (invoke)

Comments start with ``#`` and run to end of line.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional

from repro.ir.commands import (
    Assign,
    Call,
    Command,
    FieldLoad,
    FieldStore,
    Invoke,
    New,
    Skip,
    choice,
    seq,
    star,
)
from repro.ir.program import Program


class ParseError(ValueError):
    """Raised on malformed IR text."""

    def __init__(self, message: str, position: int, text: str) -> None:
        line = text.count("\n", 0, position) + 1
        super().__init__(f"line {line}: {message}")
        self.position = position


_SPACE = r"\s+|#[^\n]*"
_WORD = r"[A-Za-z_][A-Za-z0-9_$@]*|[{}()=;.]"

#: Whitespace and comments match with an empty group; every token is
#: the group's text.
_TOKEN = re.compile(_SPACE + "|(" + _WORD + ")")

#: The longest prefix of a text made only of tokens.
_LEXABLE = re.compile("(?:" + _SPACE + "|" + _WORD + ")*")

_KEYWORDS = {"proc", "call", "choose", "or", "loop", "new", "skip"}

#: Tokens that cannot start a primitive or name a variable.
_RESERVED = _KEYWORDS | set("{}()=;.")


class _Lexer:
    """The text as a list of token strings.  A token's position is
    recovered only when an error names it (:meth:`error`)."""

    def __init__(self, text: str) -> None:
        self.text = text
        end = _LEXABLE.match(text).end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}", end, text)
        self.tokens: List[str] = list(filter(None, _TOKEN.findall(text)))
        self.index = 0

    def error(self, message: str, index: int) -> ParseError:
        """A :class:`ParseError` at the start of token ``index``."""
        starts = (m.start() for m in _TOKEN.finditer(self.text) if m.group(1))
        position = next(itertools.islice(starts, index, None))
        return ParseError(message, position, self.text)

    def peek(self) -> Optional[str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> str:
        index = self.index
        if index >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text), self.text)
        self.index = index + 1
        return self.tokens[index]

    def expect(self, value: str) -> None:
        token = self.next()
        if token != value:
            raise self.error(f"expected {value!r}, found {token!r}", self.index - 1)

    def at(self, value: str) -> bool:
        return self.index < len(self.tokens) and self.tokens[self.index] == value


def parse_program(text: str, main: str = "main") -> Program:
    """Parse IR source text into a :class:`Program`."""
    lexer = _Lexer(text)
    procedures: Dict[str, Command] = {}
    while lexer.peek() is not None:
        lexer.expect("proc")
        name = lexer.next()
        if name in procedures:
            raise lexer.error(f"duplicate procedure {name!r}", lexer.index - 1)
        lexer.expect("{")
        procedures[name] = _parse_block(lexer)
    if not procedures:
        raise ParseError("empty program", 0, text)
    return Program(procedures, main=main)


def parse_command(text: str) -> Command:
    """Parse a statement block (no ``proc`` wrapper) into a command."""
    lexer = _Lexer("{" + text + "}")
    lexer.expect("{")
    return _parse_block(lexer)


def _parse_block(lexer: _Lexer) -> Command:
    """Parse statements up to and including the closing ``}``."""
    stmts: List[Command] = []
    while not lexer.at("}"):
        stmts.append(_parse_stmt(lexer))
    lexer.expect("}")
    return seq(*stmts)


def _parse_stmt(lexer: _Lexer) -> Command:
    word = lexer.next()
    index = lexer.index - 1
    if word == "call":
        proc = lexer.next()
        lexer.expect(";")
        return Call(proc)
    if word == "loop":
        lexer.expect("{")
        return star(_parse_block(lexer))
    if word == "choose":
        lexer.expect("{")
        alternatives = [_parse_block(lexer)]
        while lexer.at("or"):
            lexer.expect("or")
            lexer.expect("{")
            alternatives.append(_parse_block(lexer))
        if len(alternatives) < 2:
            raise lexer.error("choose needs at least two branches", index)
        return choice(*alternatives)
    if word == "skip":
        lexer.expect(";")
        return Skip()
    if word in _RESERVED:
        raise lexer.error(f"unexpected token {word!r}", index)
    # Starts with an identifier: assignment / new / load / store / invoke.
    return _parse_prim(lexer, word)


def _parse_prim(lexer: _Lexer, first: str) -> Command:
    if lexer.at("."):
        lexer.expect(".")
        member = lexer.next()
        if lexer.at("("):
            lexer.expect("(")
            lexer.expect(")")
            lexer.expect(";")
            return Invoke(first, member)
        lexer.expect("=")
        rhs = lexer.next()
        lexer.expect(";")
        return FieldStore(first, member, rhs)
    lexer.expect("=")
    second = lexer.next()
    if second == "new":
        site = lexer.next()
        lexer.expect(";")
        return New(first, site)
    if second in _RESERVED:
        raise lexer.error(f"unexpected token {second!r}", lexer.index - 1)
    if lexer.at("."):
        lexer.expect(".")
        fieldname = lexer.next()
        lexer.expect(";")
        return FieldLoad(first, second, fieldname)
    lexer.expect(";")
    return Assign(first, second)
