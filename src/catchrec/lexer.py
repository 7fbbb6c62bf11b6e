"""Tokenizer for Java-like source text.

One compiled pattern of alternatives (whitespace, comment, word, literal,
punctuation, operator, skipped), none of them capturing, tiles the text, and
``findall`` returns the matched texts as plain strings, with no match object
per token. A table of fixed texts gives the kind of every keyword, ``true``,
``false``, ``null``, punctuation mark and operator. Any other text is named
by its first character: an ASCII letter, ``_`` or ``$`` starts an
identifier; a digit, a quote or ``.`` starts a literal; and ``/`` starts a
comment, since the only operators that begin with ``/``, ``/`` and ``/=``,
are in the table. What is left is whitespace, which advances the line count
by its newlines, or a skipped character. Lexing never fails: comments and
whitespace are dropped, string and char literals come out as single Literal
tokens, and characters that fit no token class are skipped. The token
stream stays usable even when no syntactic structure can be recovered from
the fragment.

A scan holds its token stream as three parallel tuples, ``texts``, ``kinds``
and ``lines``: token ``i`` is ``(texts[i], kinds[i], lines[i])``. Every
stage reads them by index, so ``scan`` builds no object per token and leaves
the garbage collector nothing per token to track.

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
import string
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    LITERAL = "Literal"
    OPERATOR = "Operator"
    PUNCTUATION = "Punctuation"


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
_SINGLE_OPERATORS = "-+*/%=<>!&|^~?:"
_PUNCTUATION = "(){}[];,.@"

# One alternative per token class, tried in this order at each position:
# whitespace, comment, word, literal, punctuation, operator, skipped. Every
# character matches at least the last, so the alternatives tile the text.
# No group captures, so ``findall`` returns the matched texts themselves.
_TOKEN = re.compile(
    "|".join(
        f"(?:{pattern})"
        for pattern in (
            r"\s+",
            r"//[^\n]*|/\*.*?(?:\*/|\Z)",
            r"[A-Za-z_$][A-Za-z0-9_$]*",
            r'"(?:\\[^\n]|[^"\\\n])*(?:"|\\?\n|\\?\Z)'
            r"|'(?:\\[^\n]|[^'\\\n])*(?:'|\\?\n|\\?\Z)"
            r"|(?:[0-9]|\.(?=[0-9]))(?:[0-9a-dfA-DF_xXbB.]|[eE][+-]?)*[lL]?",
            f"[{re.escape(_PUNCTUATION)}]",
            "|".join(map(re.escape, MULTI_OPERATORS)) + f"|[{re.escape(_SINGLE_OPERATORS)}]",
            ".",
        )
    ),
    re.S,
)
# The kind of every token whose text is fixed. Any other match is named by
# its first character (see ``scan``).
_FIXED_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(WORD_LITERALS, TokenKind.LITERAL),
    **dict.fromkeys(_PUNCTUATION, TokenKind.PUNCTUATION),
    **dict.fromkeys(MULTI_OPERATORS, TokenKind.OPERATOR),
    **dict.fromkeys(_SINGLE_OPERATORS, TokenKind.OPERATOR),
}
_FIRST_KINDS = {
    **dict.fromkeys(string.ascii_letters + "_$", TokenKind.IDENTIFIER),
    **dict.fromkeys(string.digits + "\"'.", TokenKind.LITERAL),
}


@dataclass(frozen=True)
class ScanResult:
    texts: tuple[str, ...]         # token texts, in order
    kinds: tuple[TokenKind, ...]   # kind of each token
    lines: tuple[int, ...]         # 1-based line of each token, non-decreasing
    code_lines: frozenset[int]     # 1-based lines carrying at least one token
    comment_lines: frozenset[int]  # 1-based lines touched by a comment


def scan(raw_text: str) -> ScanResult:
    """Full scan keeping per-line bookkeeping for SLOC and comment density."""
    texts: list[str] = []
    kinds: list[TokenKind] = []
    lines: list[int] = []
    comment_lines: set[int] = set()
    line = 1
    for text in _TOKEN.findall(raw_text):
        kind = _FIXED_KINDS.get(text) or _FIRST_KINDS.get(text[0])
        if kind is not None:
            texts.append(text)
            kinds.append(kind)
            lines.append(line)
        elif text[0] == "/":
            end = line + text.count("\n")
            comment_lines.update(range(line, end + 1))
            line = end
        else:
            # Whitespace, or a skipped character, which holds no newline.
            line += text.count("\n")
    return ScanResult(
        texts=tuple(texts),
        kinds=tuple(kinds),
        lines=tuple(lines),
        code_lines=frozenset(lines),
        comment_lines=frozenset(comment_lines),
    )
