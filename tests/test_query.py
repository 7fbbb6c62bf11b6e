import pytest

from catchrec import SearchQuery, formulate_query, parse
from catchrec.errors import ConfigError, NoApiObjects, UnknownException
from catchrec.query import ExceptionKnowledgeBase, dominant_api_class, select_exception


@pytest.fixture(scope="module")
def kb():
    return ExceptionKnowledgeBase.bundled()


def test_listing1_query(listing1, kb):
    assert formulate_query(listing1, kb).rendered == "IOException URL"


def test_listing1_dominant_class(listing1):
    assert dominant_api_class(listing1) == "URL"


def test_explicit_exception_wins(listing1, kb):
    assert select_exception(listing1, kb, "SQLException") == "SQLException"
    query = formulate_query(listing1, kb, "SQLException")
    assert query.rendered == "SQLException URL"


def test_explicit_exception_must_look_like_one(listing1, kb):
    assert select_exception(listing1, kb, "OutOfMemoryError") == "OutOfMemoryError"
    with pytest.raises(UnknownException):
        select_exception(listing1, kb, "Banana")
    with pytest.raises(UnknownException):
        select_exception(listing1, kb, "java.io.Banana")


def test_qualified_explicit_exception_gives_its_simple_name(listing1, kb):
    assert select_exception(listing1, kb, "java.io.IOException") == "IOException"
    assert select_exception(listing1, kb, "java.lang.OutOfMemoryError") == "OutOfMemoryError"


@pytest.mark.parametrize("override", ["", "  "], ids=["empty", "blank"])
def test_empty_explicit_exception_is_rejected(listing1, kb, override):
    with pytest.raises(UnknownException):
        select_exception(listing1, kb, override)


def test_single_object_unit():
    unit = parse("FileReader reader = new FileReader(path); reader.read();")
    assert dominant_api_class(unit) == "FileReader"


def test_no_api_objects():
    unit = parse("int x = 1;")
    with pytest.raises(NoApiObjects):
        dominant_api_class(unit)


def test_activity_totals_decide_dominance():
    # A: 3 method calls; B: 2 calls + 2 field reads -> B wins 4 to 3
    unit = parse(
        "A a = find(); a.f(); a.g(); a.h();\n"
        "B b = find(); b.m(); b.n(); int x = b.p; int y = b.q;"
    )
    assert dominant_api_class(unit) == "B"


def test_dominance_tie_breaks_by_first_use():
    unit = parse("B b = find(); b.m(); A a = find(); a.f();")
    assert dominant_api_class(unit) == "B"


def test_qualified_types_render_simple_names():
    unit = parse("import java.net.URL;\nURL u = new URL(s); u.openConnection();")
    assert dominant_api_class(unit) == "URL"


def test_specific_catch_drives_exception(kb):
    unit = parse(
        "FileReader r = new FileReader(p);\n"
        "try { r.read(); } catch (FileNotFoundException fnfe) { log(fnfe); }"
    )
    assert select_exception(unit, kb) == "FileNotFoundException"


def test_first_specific_catch_wins(kb):
    unit = parse(
        "try { go(); } catch (ProtocolException pe) { a(); } catch (IOException ioe) { b(); }"
    )
    assert select_exception(unit, kb) == "ProtocolException"


def test_generic_catch_falls_back_to_kb(listing1, kb):
    # Listing-style context catches bare Exception: the knowledge base tally
    # over URL.<init> and URL.openConnection breaks the tie alphabetically.
    assert select_exception(listing1, kb) == "IOException"


def test_kb_tally_frequency(tmp_path):
    kb_file = tmp_path / "kb.tsv"
    kb_file.write_text("A\tf\tX\nA\tg\tX,Y\n")
    kb = ExceptionKnowledgeBase.from_file(kb_file)
    unit = parse("A a = make(); a.f(); a.g();")
    assert select_exception(unit, kb) == "X"  # frequency 2 vs 1


def test_kb_tally_weighs_repeated_calls(tmp_path):
    kb_file = tmp_path / "kb.tsv"
    kb_file.write_text("A\tf\tX\nA\tg\tY\n")
    kb = ExceptionKnowledgeBase.from_file(kb_file)
    unit = parse("A a = make(); a.g(); a.g(); a.f();")
    assert select_exception(unit, kb) == "Y"


def test_unknown_exception_when_kb_silent(tmp_path):
    kb = ExceptionKnowledgeBase.from_file(tmp_path / "kb.tsv") if False else ExceptionKnowledgeBase({})
    unit = parse("A a = make(); a.f();")
    with pytest.raises(UnknownException):
        select_exception(unit, kb)


def test_query_term_order(listing1, kb):
    query = formulate_query(listing1, kb)
    assert query.rendered.split() == [query.exception_name, query.dominant_class]


def test_query_requires_non_empty_terms():
    with pytest.raises(ValueError):
        SearchQuery(exception_name="", dominant_class="URL")


@pytest.mark.parametrize("name", ["+", ">>>=", ";", "@", "::"])
def test_a_punctuation_mark_or_operator_is_no_exception_name(name):
    """The filter finds the exception name among identifier, keyword and
    literal tokens; a symbol could only be found among the others."""
    with pytest.raises(ValueError, match="not an exception name"):
        SearchQuery(exception_name=name, dominant_class="URL")
    assert SearchQuery(exception_name=f"{name}Exception", dominant_class="URL")


def test_formulate_query_propagates_no_objects(kb):
    with pytest.raises(NoApiObjects):
        formulate_query(parse("int x = 1;"), kb)


def test_bundled_kb_loads():
    kb = ExceptionKnowledgeBase.bundled()
    assert len(kb) >= 40
    assert kb.lookup("URL", "openConnection") == ("IOException",)
    assert kb.lookup("URL", "<init>") == ("MalformedURLException",)
    assert kb.lookup("url", "openConnection") == ()  # case-sensitive


def test_kb_file_parsing(tmp_path):
    kb_file = tmp_path / "kb.tsv"
    kb_file.write_text(
        "# comment line\n"
        "\n"
        "A\tf\tX, Y\n"
        "A\tf\tY,Z\n"  # duplicate key merges, preserving order
    )
    kb = ExceptionKnowledgeBase.from_file(kb_file)
    assert kb.lookup("A", "f") == ("X", "Y", "Z")


def test_kb_rejects_malformed_lines(tmp_path):
    kb_file = tmp_path / "kb.tsv"
    kb_file.write_text("A\tf\n")
    with pytest.raises(ConfigError):
        ExceptionKnowledgeBase.from_file(kb_file)
