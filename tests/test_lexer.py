import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchrec.lexer import (
    _FIXED_KINDS,
    _TOKEN,
    KEYWORDS,
    MULTI_OPERATORS,
    WORD_LITERALS,
    ScanResult,
    TokenKind,
    scan,
)

SINGLE_OPERATORS = frozenset("+-*/%=<>!&|^~?:")
PUNCTUATION = frozenset("(){}[];,.@")

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_IDENT_PART = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def _reference_scan(raw_text: str) -> ScanResult:
    """Character-at-a-time scanner that ``scan`` must equal on every input;
    the oracle of ``test_scan_equals_reference_scanner``."""
    texts: list[str] = []
    kinds: list[TokenKind] = []
    lines: list[int] = []
    code_lines: set[int] = set()
    comment_lines: set[int] = set()

    i = 0
    line = 1
    n = len(raw_text)

    def emit(text: str, kind: TokenKind) -> None:
        texts.append(text)
        kinds.append(kind)
        lines.append(line)
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
        i += 1

    return ScanResult(
        texts=tuple(texts),
        kinds=tuple(kinds),
        lines=tuple(lines),
        code_lines=frozenset(code_lines),
        comment_lines=frozenset(comment_lines),
    )


def kinds(result):
    return list(zip(result.texts, result.kinds))


def test_simple_statement():
    assert kinds(scan("int x = 0;")) == [
        ("int", TokenKind.KEYWORD),
        ("x", TokenKind.IDENTIFIER),
        ("=", TokenKind.OPERATOR),
        ("0", TokenKind.LITERAL),
        (";", TokenKind.PUNCTUATION),
    ]


def test_empty_input():
    for text in ("", "   \n\t\n"):
        result = scan(text)
        assert (result.texts, result.kinds, result.lines) == ((), (), ())


def test_method_call_reference_lex():
    # Hand-written reference: url . openConnection ( )
    assert kinds(scan("url.openConnection()")) == [
        ("url", TokenKind.IDENTIFIER),
        (".", TokenKind.PUNCTUATION),
        ("openConnection", TokenKind.IDENTIFIER),
        ("(", TokenKind.PUNCTUATION),
        (")", TokenKind.PUNCTUATION),
    ]


def test_comments_dropped():
    assert scan("// gone\n/* also\ngone */").texts == ()
    texts = scan("int a; // trailing\nint b; /* mid */ int c;").texts
    assert texts == ("int", "a", ";", "int", "b", ";", "int", "c", ";")


def test_string_literal_single_token():
    result = scan('log("a + b; // not a comment");')
    assert result.kinds[2] is TokenKind.LITERAL
    assert result.texts[2] == '"a + b; // not a comment"'


def of_kind(result, wanted):
    return [text for text, kind in kinds(result) if kind is wanted]


def test_char_and_escaped_literals():
    result = scan("char c = '\\n'; String s = \"x\\\"y\";")
    assert of_kind(result, TokenKind.LITERAL) == ["'\\n'", '"x\\"y"']


def test_number_literals():
    result = scan("int a = 0xFF; long b = 1_000L; double d = 1.5e-3;")
    assert of_kind(result, TokenKind.LITERAL) == ["0xFF", "1_000L", "1.5e-3"]


def test_word_literals_and_keywords():
    by_text = dict(kinds(scan("if (x == null) return true;")))
    assert by_text["if"] is TokenKind.KEYWORD
    assert by_text["return"] is TokenKind.KEYWORD
    assert by_text["null"] is TokenKind.LITERAL
    assert by_text["true"] is TokenKind.LITERAL
    assert by_text["=="] is TokenKind.OPERATOR


def test_multichar_operators_longest_match():
    result = scan("a >>= b; c >= d; e -> f; g::h;")
    assert of_kind(result, TokenKind.OPERATOR) == [">>=", ">=", "->", "::"]


def test_unlexable_bytes_skipped_not_fatal():
    result = scan("int a = 1; `` int b = 2;")
    assert result.texts == ("int", "a", "=", "1", ";", "int", "b", "=", "2", ";")


def test_line_numbers():
    result = scan("int a;\n\nint b;")
    assert [
        (text, line)
        for text, kind, line in zip(result.texts, result.kinds, result.lines)
        if kind is TokenKind.IDENTIFIER
    ] == [("a", 1), ("b", 3)]


def test_line_classification():
    result = scan("int a; // trailing\n// only comment\n\nint b;")
    assert result.code_lines == frozenset({1, 4})
    assert result.comment_lines == frozenset({1, 2})


def test_block_comment_spans_lines():
    result = scan("/* one\ntwo\nthree */ int x;")
    assert result.comment_lines == frozenset({1, 2, 3})
    assert result.code_lines == frozenset({3})


def test_determinism():
    text = 'try { a.b("c"); } catch (E e) { }'
    assert scan(text) == scan(text)


# Single characters and a few pairs that exercise every branch of the
# scanner: both quotes and escapes, number characters and exponent signs,
# comment openers and closers, Unicode spaces and a non-ASCII letter.
_FUZZ_PIECES = st.sampled_from(
    list("\"'\\eE0x.+-/*\n \x0b\x1c\xa0\u2028\u00e9aZ_$19lLpPfFdDbB(){}[];,@=<>!&|^~?:%`#")
    + ["/*", "*/", "//", "0x", "1e", ">>>=", "->", "::"]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_FUZZ_PIECES, max_size=40).map("".join))
@example('"ab\n')
@example("'x\\")
@example("0xE+1")
@example("/*/")
@example(".5e-3")
@example("1e+-2")
@example("a-->b")
@example(">>>=")
@example("\u00e9")
@example("\x1c")
@example("\u2028")
@example("/=")
@example("a/b")
@example("/**/")
@example("x /*")
@example("1./2")
def test_scan_equals_reference_scanner(text):
    result = scan(text)
    # Equality covers texts, kinds, lines, code_lines and comment_lines.
    assert result == _reference_scan(text)
    assert len(result.texts) == len(result.kinds) == len(result.lines)
    assert all(result.texts)
    assert list(result.lines) == sorted(result.lines)


def test_regex_space_is_str_isspace():
    """The ``space`` alternative assumes ``\\s`` and ``str.isspace`` agree."""
    space = re.compile(r"\s")
    disagree = [
        hex(code)
        for code in range(sys.maxunicode + 1)
        if bool(space.fullmatch(chr(code))) != chr(code).isspace()
    ]
    assert disagree == []


def test_token_pattern_captures_nothing():
    """``findall`` returns the matched texts only while no group captures;
    one capturing group would make it return tuples."""
    assert _TOKEN.groups == 0


def test_every_fixed_text_scans_to_one_token_of_its_kind():
    for text, kind in _FIXED_KINDS.items():
        result = scan(text)
        assert (result.texts, result.kinds) == ((text,), (kind,)), text
