from catchrec.lexer import Token, TokenKind, scan


def kinds(tokens):
    return [(t.text, t.kind) for t in tokens]


def test_simple_statement():
    assert kinds(scan("int x = 0;").tokens) == [
        ("int", TokenKind.KEYWORD),
        ("x", TokenKind.IDENTIFIER),
        ("=", TokenKind.OPERATOR),
        ("0", TokenKind.LITERAL),
        (";", TokenKind.PUNCTUATION),
    ]


def test_empty_input():
    assert scan("").tokens == ()
    assert scan("   \n\t\n").tokens == ()


def test_method_call_reference_lex():
    # Hand-written reference: url . openConnection ( )
    assert kinds(scan("url.openConnection()").tokens) == [
        ("url", TokenKind.IDENTIFIER),
        (".", TokenKind.PUNCTUATION),
        ("openConnection", TokenKind.IDENTIFIER),
        ("(", TokenKind.PUNCTUATION),
        (")", TokenKind.PUNCTUATION),
    ]


def test_comments_dropped():
    assert scan("// gone\n/* also\ngone */").tokens == ()
    tokens = scan("int a; // trailing\nint b; /* mid */ int c;").tokens
    assert [t.text for t in tokens] == ["int", "a", ";", "int", "b", ";", "int", "c", ";"]


def test_string_literal_single_token():
    tokens = scan('log("a + b; // not a comment");').tokens
    assert tokens[2].kind is TokenKind.LITERAL
    assert tokens[2].text == '"a + b; // not a comment"'


def test_char_and_escaped_literals():
    tokens = scan("char c = '\\n'; String s = \"x\\\"y\";").tokens
    literals = [t.text for t in tokens if t.kind is TokenKind.LITERAL]
    assert literals == ["'\\n'", '"x\\"y"']


def test_number_literals():
    tokens = scan("int a = 0xFF; long b = 1_000L; double d = 1.5e-3;").tokens
    literals = [t.text for t in tokens if t.kind is TokenKind.LITERAL]
    assert literals == ["0xFF", "1_000L", "1.5e-3"]


def test_word_literals_and_keywords():
    tokens = scan("if (x == null) return true;").tokens
    by_text = {t.text: t.kind for t in tokens}
    assert by_text["if"] is TokenKind.KEYWORD
    assert by_text["return"] is TokenKind.KEYWORD
    assert by_text["null"] is TokenKind.LITERAL
    assert by_text["true"] is TokenKind.LITERAL
    assert by_text["=="] is TokenKind.OPERATOR


def test_multichar_operators_longest_match():
    tokens = scan("a >>= b; c >= d; e -> f; g::h;").tokens
    ops = [t.text for t in tokens if t.kind is TokenKind.OPERATOR]
    assert ops == [">>=", ">=", "->", "::"]


def test_unlexable_bytes_skipped_not_fatal():
    result = scan("int a = 1; `` int b = 2;")
    assert result.skipped == 2
    assert [t.text for t in result.tokens] == ["int", "a", "=", "1", ";", "int", "b", "=", "2", ";"]


def test_line_numbers():
    tokens = scan("int a;\n\nint b;").tokens
    assert [(t.text, t.line) for t in tokens if t.kind is TokenKind.IDENTIFIER] == [
        ("a", 1),
        ("b", 3),
    ]


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
    assert scan(text).tokens == scan(text).tokens


def test_token_requires_text():
    import pytest

    with pytest.raises(ValueError):
        Token("", TokenKind.IDENTIFIER)
