"""Tokenizer for Java-like source text.

Lexing never fails: comments and whitespace are dropped, string and char
literals come out as single Literal tokens, and bytes that fit no token
class are skipped and counted. The token stream stays usable even when no
syntactic structure can be recovered from the fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    LITERAL = "Literal"
    OPERATOR = "Operator"
    PUNCTUATION = "Punctuation"


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind
    line: int = 0

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("token text must be non-empty")


# Java reserved words. true/false/null are literals, not keywords.
KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    """.split()
)

WORD_LITERALS = frozenset({"true", "false", "null"})

# Longest first so that e.g. ">>>=" wins over ">>".
MULTI_OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "==", "!=", "<=", ">=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "->", "::",
)
SINGLE_OPERATORS = frozenset("+-*/%=<>!&|^~?:")
PUNCTUATION = frozenset("(){}[];,.@")

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_IDENT_PART = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class ScanResult:
    tokens: tuple[Token, ...]
    code_lines: frozenset[int]     # 1-based lines carrying at least one token
    comment_lines: frozenset[int]  # 1-based lines touched by a comment
    skipped: int                   # bytes that fit no token class


def scan(raw_text: str) -> ScanResult:
    """Full scan keeping per-line bookkeeping for SLOC and comment density."""
    tokens: list[Token] = []
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    skipped = 0

    i = 0
    line = 1
    n = len(raw_text)

    def emit(text: str, kind: TokenKind) -> None:
        tokens.append(Token(text, kind, line))
        code_lines.add(line)

    while i < n:
        ch = raw_text[i]

        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue

        # Line comment.
        if ch == "/" and i + 1 < n and raw_text[i + 1] == "/":
            comment_lines.add(line)
            while i < n and raw_text[i] != "\n":
                i += 1
            continue

        # Block comment, possibly spanning lines; unterminated runs to EOF.
        if ch == "/" and i + 1 < n and raw_text[i + 1] == "*":
            comment_lines.add(line)
            i += 2
            while i < n:
                if raw_text[i] == "\n":
                    line += 1
                    comment_lines.add(line)
                elif raw_text[i] == "*" and i + 1 < n and raw_text[i + 1] == "/":
                    i += 2
                    break
                i += 1
            else:
                i = n
            continue

        # String / char literal, kept as one token including quotes.
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and raw_text[j] != quote:
                if raw_text[j] == "\\":
                    j += 1
                if j < n and raw_text[j] == "\n":
                    break  # unterminated on this line; close it here
                j += 1
            j = min(j + 1, n)
            emit(raw_text[i:j], TokenKind.LITERAL)
            i = j
            continue

        # Number literal (int/float/hex/binary, underscores, suffixes).
        if ch in _DIGITS or (ch == "." and i + 1 < n and raw_text[i + 1] in _DIGITS):
            j = i
            allowed = _DIGITS | frozenset("abcdefABCDEF_xXbB.")
            while j < n and raw_text[j] in allowed:
                j += 1
                # exponent sign: 1e-5
                if (
                    j < n
                    and raw_text[j] in "+-"
                    and raw_text[j - 1] in "eEpP"
                    and raw_text[i] in _DIGITS | {"."}
                ):
                    j += 1
            if j < n and raw_text[j] in "lLfFdD":
                j += 1
            emit(raw_text[i:j], TokenKind.LITERAL)
            i = j
            continue

        # Identifier, keyword, or word literal.
        if ch in _IDENT_START:
            j = i + 1
            while j < n and raw_text[j] in _IDENT_PART:
                j += 1
            word = raw_text[i:j]
            if word in KEYWORDS:
                emit(word, TokenKind.KEYWORD)
            elif word in WORD_LITERALS:
                emit(word, TokenKind.LITERAL)
            else:
                emit(word, TokenKind.IDENTIFIER)
            i = j
            continue

        if ch in PUNCTUATION:
            emit(ch, TokenKind.PUNCTUATION)
            i += 1
            continue

        matched = False
        for op in MULTI_OPERATORS:
            if raw_text.startswith(op, i):
                emit(op, TokenKind.OPERATOR)
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_OPERATORS:
            emit(ch, TokenKind.OPERATOR)
            i += 1
            continue

        # Anything else (stray unicode, control bytes) is skipped.
        skipped += 1
        i += 1

    return ScanResult(
        tokens=tuple(tokens),
        code_lines=frozenset(code_lines),
        comment_lines=frozenset(comment_lines),
        skipped=skipped,
    )
