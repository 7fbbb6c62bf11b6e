from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchrec import parse, quality_score
from catchrec import quality as q
from catchrec.errors import EmptyUnit
from catchrec.lexer import TokenKind
from catchrec.quality import (
    QualityWeights,
    average_handler_actions,
    handler_to_code_ratio,
    readability,
)


def test_readability_empty_source():
    assert readability(parse("")) == 0.0
    assert readability(parse("   \n  \n")) == 0.0


def test_readability_in_unit_interval():
    samples = [
        "int a = 1;",
        "// only a comment\nint a = 1;",
        "x" * 500,
        "((((((((()))))))))" * 10,
        Path(__file__).read_text(),  # any text lexes
    ]
    for text in samples:
        assert 0.0 <= readability(parse(text)) <= 1.0


def test_readability_tripled_lines_score_lower():
    short = "int a = b;\n// sum\nint c = d;"
    tripled = "\n".join(line * 3 for line in short.splitlines())
    assert readability(parse(short)) > readability(parse(tripled))


def test_readability_penalizes_parentheses():
    plain = "value = alpha plus beta;"
    parens = "value = ((((alpha)) ((plus)) ((beta))));"
    assert readability(parse(plain)) > readability(parse(parens))


def test_readability_rewards_comments_and_blanks():
    bare = "int a = 1;\nint b = 2;\nint c = 3;\nint d = 4;"
    commented = "// totals\nint a = 1;\nint b = 2;\n\nint c = 3;\nint d = 4;"
    assert readability(parse(commented)) > readability(parse(bare))


def test_readability_deterministic():
    text = "try { a(); } catch (E e) { b(); }"
    assert readability(parse(text)) == readability(parse(text))


def _reference_readability(unit) -> float:
    """Readability spelled out with one list per ingredient; the oracle of
    ``test_readability_equals_reference``."""
    lines = unit.raw_text.splitlines()
    nonblank = [line for line in lines if line.strip()]
    if not nonblank:
        return 0.0
    avg_line = sum(len(line) for line in nonblank) / len(nonblank)
    max_line = max(len(line) for line in lines)
    identifiers = [
        text for text, kind in zip(unit.texts, unit.kinds) if kind is TokenKind.IDENTIFIER
    ]
    avg_ident = sum(len(i) for i in identifiers) / len(identifiers) if identifiers else 0.0
    comment_density = len(unit.comment_lines) / len(lines)
    paren_density = (unit.raw_text.count("(") + unit.raw_text.count(")")) / len(nonblank)
    blank_density = (len(lines) - len(nonblank)) / len(lines)
    score = (
        q._WEIGHT_AVG_LINE * q._clamp(1.0 - avg_line / q._AVG_LINE_ZERO)
        + q._WEIGHT_MAX_LINE * q._clamp(1.0 - max_line / q._MAX_LINE_ZERO)
        + q._WEIGHT_IDENT * q._clamp(1.0 - avg_ident / q._IDENT_ZERO)
        + q._WEIGHT_COMMENTS * q._clamp(comment_density / q._COMMENT_FULL)
        + q._WEIGHT_PARENS * q._clamp(1.0 - paren_density / q._PAREN_ZERO)
        + q._WEIGHT_BLANKS * q._clamp(blank_density / q._BLANK_FULL)
    )
    return q._clamp(score)


# Java-ish pieces, with the line breaks and blanks ``splitlines`` and
# ``str.strip`` treat specially.
_JAVA_PIECES = st.sampled_from(
    ["int", "a", "value", "conn", "_x$", "e", "(", ")", "{", "}", ";", "=", ".", "1",
     '"s"', "// note", "/*", "*/", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x1c",
     "\u2028", "\u00a0", "\u00e9"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_JAVA_PIECES, max_size=60).map("".join))
@example("")
@example(" \n\t\n")
@example("\u2028x")
@example("a\x0bb(c);\n\n// d")
def test_readability_equals_reference(text):
    unit = parse(text)
    assert readability(unit) == _reference_readability(unit)


def test_listing2_readability_in_open_interval(listing2):
    assert 0.0 < readability(listing2) < 1.0


def test_average_handler_actions_listing2(listing2):
    assert average_handler_actions(listing2.handlers) == pytest.approx(5 / 3)


def test_average_handler_actions_empty_catch():
    unit = parse("try { go(); } catch (Exception e) { }")
    assert average_handler_actions(unit.handlers) == 0.0


def test_average_handler_actions_no_catches():
    assert average_handler_actions(parse("int x = 1;").handlers) == 0.0


def test_average_handler_actions_hand_count():
    unit = parse(
        """
        try { go(); } catch (A a) {
            one(); two(); three();
        } catch (B b) {
            only();
        }
        """
    )
    assert average_handler_actions(unit.handlers) == pytest.approx(2.0)


def test_adding_print_stack_trace_leaves_aha_unchanged():
    base = "try { go(); } catch (E e) {\n    recover(e);\n}"
    noisy = "try { go(); } catch (E e) {\n    recover(e);\n    e.printStackTrace();\n}"
    assert average_handler_actions(parse(base).handlers) == average_handler_actions(
        parse(noisy).handlers
    )


def test_handler_ratio_listing2(listing2):
    assert handler_to_code_ratio(listing2) == pytest.approx(0.52)


def test_handler_ratio_no_handlers():
    assert handler_to_code_ratio(parse("int a = 1;\nint b = 2;")) == 0.0


def test_handler_ratio_hand_counted_fixture():
    unit = parse(
        "int a = 1;\n"
        "int b = 2;\n"
        "int c = 3;\n"
        "try {\n"
        "    risky(a);\n"
        "    risky(b);\n"
        "} catch (Exception problem) {\n"
        "    recover(problem);\n"
        "    report(problem);\n"
        "}\n"
    )
    assert unit.sloc == 10
    assert unit.handlers.handler_sloc == 4
    assert handler_to_code_ratio(unit) == pytest.approx(0.4)


def test_handler_ratio_requires_code():
    with pytest.raises(EmptyUnit):
        handler_to_code_ratio(parse("// nothing but comments"))


def test_handler_ratio_monotonicity():
    base = "setup();\ntry {\n    a();\n} catch (E e) {\n    fix();\n}"
    more_code = base + "\nint extra = 1;"
    more_handler = "setup();\ntry {\n    a();\n} catch (E e) {\n    fix();\n    fix2();\n}"
    assert handler_to_code_ratio(parse(more_code)) < handler_to_code_ratio(parse(base))
    assert handler_to_code_ratio(parse(more_handler)) > handler_to_code_ratio(parse(base))


def test_quality_score_composition(listing2):
    report = quality_score(listing2)
    assert report.raw == pytest.approx(
        report.readability + report.handler_actions + report.handler_ratio
    )


def test_quality_score_weighted():
    unit = parse(
        "int a = 1;\n"
        "int b = 2;\n"
        "int c = 3;\n"
        "try {\n"
        "    risky(a);\n"
        "    risky(b);\n"
        "} catch (Exception problem) {\n"
        "    recover(problem);\n"
        "    report(problem);\n"
        "}\n"
    )
    weights = QualityWeights(readability=2.0, handler_actions=3.0, handler_ratio=5.0)
    report = quality_score(unit, weights)
    # aha = 2.0, hcr = 0.4 by hand count; readability carries its own weight
    assert report.handler_actions == pytest.approx(2.0)
    assert report.handler_ratio == pytest.approx(0.4)
    assert report.raw == pytest.approx(2.0 * report.readability + 6.0 + 2.0)


def test_quality_score_no_handlers():
    unit = parse("int a = 1;\nint b = 2;")
    report = quality_score(unit)
    assert report.raw == pytest.approx(report.readability)


def test_quality_score_empty_unit_propagates():
    with pytest.raises(EmptyUnit):
        quality_score(parse(""))


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        QualityWeights(handler_ratio=-2.0)
