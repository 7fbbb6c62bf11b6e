from pathlib import Path

import pytest

from catchrec import parse, quality_score
from catchrec.errors import EmptyUnit
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
