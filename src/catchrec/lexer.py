"""Tokenizer for Java-like source text.

One compiled pattern of named alternatives (whitespace, comment, word,
literal, punctuation, operator, skipped) is matched across the text, and
each match's group decides what it becomes. Lexing never fails: comments and
whitespace are dropped, string and char literals come out as single Literal
tokens, and characters that fit no token class are skipped. The token
stream stays usable even when no syntactic structure can be recovered from
the fragment.

A scan holds its token stream as three parallel tuples, ``texts``, ``kinds``
and ``lines``: token ``i`` is ``(texts[i], kinds[i], lines[i])``. Every
stage reads them by index, so ``scan`` builds no object per token and leaves
the garbage collector nothing per token to track. A :class:`Token` is only a
view of one position, built on demand by the ``tokens`` property of a scan
or a unit (for display and tests) and never stored. It is a slotted,
unfrozen dataclass that compares by value and is unhashable.

Some choices are kept for stable output rather than Java fidelity:

- an unterminated string or char literal ends at its newline and includes
  it, and that newline does not advance the line count;
- a number runs over digits, ``a-f``, ``x``, ``b``, ``_`` and ``.``, with a
  sign allowed after ``e``, so ``0xE+1`` is one literal; ``p``/``P`` are
  not number characters;
- a non-ASCII letter is skipped one character at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    LITERAL = "Literal"
    OPERATOR = "Operator"
    PUNCTUATION = "Punctuation"


@dataclass(slots=True)
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

# One alternative per token class, tried in this order at each position.
# Every character matches at least ``skipped``, so the alternatives tile the
# text. Inner groups are non-capturing, so ``lastgroup`` names the class.
_TOKEN = re.compile(
    "|".join(
        f"(?P<{group}>{pattern})"
        for group, pattern in (
            ("space", r"\s+"),
            ("comment", r"//[^\n]*|/\*.*?(?:\*/|\Z)"),
            ("word", r"[A-Za-z_$][A-Za-z0-9_$]*"),
            (
                "literal",
                r'"(?:\\[^\n]|[^"\\\n])*(?:"|\\?\n|\\?\Z)'
                r"|'(?:\\[^\n]|[^'\\\n])*(?:'|\\?\n|\\?\Z)"
                r"|(?:[0-9]|\.(?=[0-9]))(?:[0-9a-dfA-DF_xXbB.]|[eE][+-]?)*[lL]?",
            ),
            ("punctuation", r"[(){}\[\];,.@]"),
            ("operator", "|".join(map(re.escape, MULTI_OPERATORS)) + r"|[-+*/%=<>!&|^~?:]"),
            ("skipped", "."),
        )
    ),
    re.S,
)
_GROUP_KINDS = {
    "literal": TokenKind.LITERAL,
    "punctuation": TokenKind.PUNCTUATION,
    "operator": TokenKind.OPERATOR,
}
_WORD_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(WORD_LITERALS, TokenKind.LITERAL),
}


@dataclass(frozen=True)
class ScanResult:
    texts: tuple[str, ...]         # token texts, in order
    kinds: tuple[TokenKind, ...]   # kind of each token
    lines: tuple[int, ...]         # 1-based line of each token, non-decreasing
    code_lines: frozenset[int]     # 1-based lines carrying at least one token
    comment_lines: frozenset[int]  # 1-based lines touched by a comment

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The token stream as :class:`Token` views, built on each call."""
        return tuple(map(Token, self.texts, self.kinds, self.lines))


def scan(raw_text: str) -> ScanResult:
    """Full scan keeping per-line bookkeeping for SLOC and comment density."""
    texts: list[str] = []
    kinds: list[TokenKind] = []
    lines: list[int] = []
    comment_lines: set[int] = set()
    line = 1
    for match in _TOKEN.finditer(raw_text):
        group = match.lastgroup
        text = match.group()
        if group == "space":
            line += text.count("\n")
        elif group == "comment":
            end = line + text.count("\n")
            comment_lines.update(range(line, end + 1))
            line = end
        elif group != "skipped":
            if group == "word":
                kinds.append(_WORD_KINDS.get(text, TokenKind.IDENTIFIER))
            else:
                kinds.append(_GROUP_KINDS[group])
            texts.append(text)
            lines.append(line)
    return ScanResult(
        texts=tuple(texts),
        kinds=tuple(kinds),
        lines=tuple(lines),
        code_lines=frozenset(lines),
        comment_lines=frozenset(comment_lines),
    )
