import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchrec import parse
from catchrec.lexer import TokenKind, scan
from catchrec.model import HandlerInfo, ParseStatus
from catchrec.parser import _brackets, _handler_structure, _ObjectExtractor
from test_lexer import _FUZZ_PIECES


def by_var(unit):
    return {u.variable_name: u for u in unit.objects}


def test_listing1_structure(listing1):
    assert listing1.parse_status is ParseStatus.FULL
    assert listing1.handlers.try_blocks == 1
    assert len(listing1.handlers.catch_clauses) == 1
    assert listing1.handlers.catch_clauses[0].exception_types == ("Exception",)
    assert {u.type_name for u in listing1.objects} == {"URL", "HttpURLConnection"}


def test_listing1_objects(listing1):
    objs = by_var(listing1)
    assert objs["url"].methods == (("<init>", 1), ("openConnection", 1))
    assert objs["url"].fields == ()
    assert objs["conn"].methods == ()
    assert listing1.dependencies == ()


def test_listing2_structure(listing2):
    assert listing2.parse_status is ParseStatus.FULL
    handlers = listing2.handlers
    assert handlers.try_blocks == 1
    assert handlers.finally_blocks == 1
    assert [c.exception_types for c in handlers.catch_clauses] == [
        ("MalformedURLException",),
        ("ProtocolException",),
        ("IOException",),
    ]


def test_listing2_significant_statement_counts(listing2):
    counts = [c.significant_count for c in listing2.handlers.catch_clauses]
    assert counts == [2, 2, 1]


def test_listing2_line_counts(listing2):
    assert listing2.sloc == 25  # one comment-only line
    assert listing2.handlers.handler_sloc == 13


def test_listing2_static_field_access_merges_into_instance(listing2):
    objs = by_var(listing2)
    assert objs["httpconn"].fields == (("HTTP_OK", 1),)
    assert objs["httpconn"].methods == (
        ("getInputStream", 1),
        ("getResponseCode", 1),
        ("setRequestMethod", 1),
    )


def test_listing2_dependencies(listing2):
    objs = list(listing2.objects)
    edges = {
        (objs[d.consumer].type_name, objs[d.producer].type_name, d.access_point)
        for d in listing2.dependencies
    }
    assert edges == {
        ("BufferedReader", "InputStreamReader", ""),
        ("InputStreamReader", "HttpURLConnection", "getInputStream"),
    }


def test_degenerate_fragment():
    unit = parse("x +")
    assert unit.parse_status is ParseStatus.PARTIAL
    assert [t.text for t in unit.tokens] == ["x", "+"]


def test_failed_parse_keeps_tokens():
    unit = parse("} catch (IOException e) {\n    retry();\n}")
    assert unit.parse_status is ParseStatus.FAILED
    assert unit.objects == ()
    assert unit.handlers.catch_clauses == ()
    assert len(unit.tokens) > 0
    assert unit.sloc == 3


_JAVA_PIECES = st.sampled_from(
    ["try", "catch", "finally", "{", "}", "(", ")", "[", "]", ";", " ", "\n", "e",
     "IOException", "a.f()", "new A(", "A a = ", "(B) ", "<T>", "//", "/*", "*/",
     '"', "'", "\\", "catch (E e)", "try {", "import x.Y;", "|", "@"]
)


def _closer_before_opener(tokens):
    """Whether some prefix of the punctuation has more ``}`` than ``{`` or
    more ``)`` than ``(``."""
    seen = {"{": 0, "}": 0, "(": 0, ")": 0}
    for tok in tokens:
        if tok.kind is TokenKind.PUNCTUATION and tok.text in seen:
            seen[tok.text] += 1
            if seen["}"] > seen["{"] or seen[")"] > seen["("]:
                return True
    return False


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=80), st.lists(_JAVA_PIECES, max_size=40).map("".join)))
@example("({)}")
@example("try { } catch (E e) { ) }")
@example('"}" { /* ) */ }')
def test_parse_never_raises_and_fails_only_on_an_unopened_closer(text):
    unit = parse(text)
    assert (unit.parse_status is ParseStatus.FAILED) == _closer_before_opener(unit.tokens)
    if unit.parse_status is not ParseStatus.FAILED:
        keywords = Counter(t.text for t in unit.tokens if t.kind is TokenKind.KEYWORD)
        assert len(unit.handlers.catch_clauses) == keywords["catch"]
        assert unit.handlers.try_blocks == keywords["try"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_FUZZ_PIECES, _JAVA_PIECES), max_size=40).map("".join))
def test_parse_of_its_scan_equals_parse(text):
    assert parse(text, scan(text)) == parse(text)


def test_parse_of_its_scan_equals_parse_on_every_fixture(fixtures_dir):
    for path in sorted(fixtures_dir.rglob("*.java")):
        text = path.read_text()
        assert parse(text, scan(text)) == parse(text), path


class _ReferenceExtractor(_ObjectExtractor):
    """The object walk spelled out: every token looked up in ``excluded``,
    the chain read by ``_chain``, and ``_declaration`` and ``_cast_binding``
    tried after every chain; the oracle of the
    ``test_object_walk_equals_reference`` tests."""

    def _walk(self) -> None:
        texts, kinds = self.texts, self.kinds
        n = len(texts)
        i = 0
        while i < n:
            if i in self.excluded:
                i += 1
                continue
            kind = kinds[i]
            if kind is TokenKind.PUNCTUATION:
                if texts[i] == "(":
                    self.paren_stack.append(self._enclosing())
                elif texts[i] == ")":
                    if self.paren_stack:
                        self.paren_stack.pop()
                i += 1
                continue
            if kind is TokenKind.KEYWORD:
                if texts[i] == "new":
                    i = self._handle_new(i)
                elif texts[i] == "import":
                    i = self._handle_import(i)
                else:
                    i += 1
                continue
            if kind is TokenKind.IDENTIFIER:
                i = self._handle_identifier(i)
                continue
            i += 1

    def _handle_identifier(self, i: int) -> int:
        texts = self.texts
        n = len(texts)
        parts, j = self._chain(i)

        decl_end = self._declaration(parts, j)
        if decl_end is not None:
            return decl_end

        cast_end = self._cast_binding(parts, j)
        if cast_end is not None:
            return cast_end

        head = parts[0]
        is_call = j < n and texts[j] == "("

        if is_call:
            consumer: int | None = None
            if len(parts) == 2:
                member = parts[1]
                target = self._receiver_use(head)
                if target is not None:
                    self.uses[target].methods[member] += 1
                    self._add_dep(self._enclosing(), target, member)
                    consumer = target
            elif len(parts) > 2:
                target = self._receiver_use(head)
                if target is not None:
                    self.uses[target].fields[parts[1]] += 1
            self.paren_stack.append(consumer)
            return j + 1

        if len(parts) == 1:
            if head in self.bindings:
                self._add_dep(self._enclosing(), self.bindings[head], "")
            return j

        target = self._receiver_use(head)
        if target is not None:
            member = parts[1]
            self.uses[target].fields[member] += 1
            if len(parts) == 2:
                self._add_dep(self._enclosing(), target, member)
        return j


def _walks(text):
    """The objects and dependencies of ``text`` from the shipped walk and
    from the reference walk, over the same excluded catch headers (none
    when the brackets do not match and ``parse`` would skip the walk)."""
    scanned = scan(text)
    brackets = _brackets(scanned.texts)
    excluded = set() if brackets is None else _handler_structure(scanned, brackets[0])[1]
    return tuple(
        extractor(scanned.texts, scanned.kinds, excluded).run()
        for extractor in (_ObjectExtractor, _ReferenceExtractor)
    )


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_FUZZ_PIECES, _JAVA_PIECES), max_size=40).map("".join))
@example("List<T> a = new ArrayList<>();")
@example("T[] a;")
@example("x = (T) y;")
@example("x = (T) new Y();")
@example("a.b.c(d);")
@example("try { } catch (E e) { e.f(); }")
@example("Map<String, List<String>> m = new HashMap<>(); m.put(a, b);")
@example("x = (a + b) * c; x.run();")
@example("x = (foo) y; x.run();")
@example("x = (Foo) y; x.run();")
def test_object_walk_equals_reference(text):
    shipped, reference = _walks(text)
    assert shipped == reference


def test_object_walk_equals_reference_on_every_fixture(fixtures_dir):
    for path in sorted(fixtures_dir.rglob("*.java")):
        shipped, reference = _walks(path.read_text())
        assert shipped == reference, path


def test_empty_input_unit():
    unit = parse("")
    assert unit.parse_status is ParseStatus.FULL
    assert unit.tokens == ()
    assert unit.sloc == 0


def test_single_object_constructor():
    unit = parse("URL u = new URL(s);")
    assert len(unit.objects) == 1
    use = unit.objects[0]
    assert (use.variable_name, use.type_name, use.ordinal) == ("u", "URL", 0)
    assert use.methods == (("<init>", 1),)
    assert unit.dependencies == ()


def test_constructor_argument_dependency():
    unit = parse("A a = new A(); B b = new B(a.f());")
    objs = list(unit.objects)
    edges = [
        (objs[d.consumer].type_name, objs[d.producer].type_name, d.access_point)
        for d in unit.dependencies
    ]
    assert edges == [("B", "A", "f")]


def test_whole_object_argument_dependency():
    unit = parse("A a = new A(); B b = new B(a);")
    objs = list(unit.objects)
    edges = [
        (objs[d.consumer].type_name, objs[d.producer].type_name, d.access_point)
        for d in unit.dependencies
    ]
    assert edges == [("B", "A", "")]


def test_method_result_assignment_is_not_a_dependency():
    # Only argument passing creates data flow; assigning a call result does not.
    unit = parse("A a = new A(); B b = (B) a.open();")
    assert unit.dependencies == ()


def test_method_argument_dependency():
    unit = parse("A a = new A(); B b = new B(); b.consume(a.f());")
    objs = list(unit.objects)
    edges = {
        (objs[d.consumer].type_name, objs[d.producer].type_name, d.access_point)
        for d in unit.dependencies
    }
    assert edges == {("B", "A", "f")}


def test_untracked_call_absorbs_arguments():
    unit = parse("A a = new A(); B b = new B(helper(a.f()));")
    assert unit.dependencies == ()


@pytest.mark.parametrize(
    "text, try_blocks, catch_clauses",
    [
        pytest.param("a.run()", 0, 0, id="mid-statement"),
        pytest.param("try {\n    a.run();\n", 1, 0, id="unclosed-block"),
        pytest.param("catch (IOException e) { log(e); }", 0, 1, id="orphan-catch"),
    ],
)
def test_each_partial_trigger_alone(text, try_blocks, catch_clauses):
    unit = parse(text)
    assert unit.parse_status is ParseStatus.PARTIAL
    assert unit.handlers.try_blocks == try_blocks
    assert len(unit.handlers.catch_clauses) == catch_clauses


@pytest.mark.parametrize(
    "text, objects, catch_types",
    [
        pytest.param(
            "conn = (HttpURLConnection) url.openConnection(); conn.connect();",
            [("HttpURLConnection", "conn", (), (("connect", 1),))], [], id="cast-binding",
        ),
        pytest.param(
            "new Foo[2]; Foo.reset();",
            [("Foo", "", (), (("reset", 1),))], [], id="array-creation-then-static-access",
        ),
        pytest.param(
            "x = new Socket(h, p); x.close();",
            [("Socket", "x", (), (("<init>", 1), ("close", 1)))], [], id="new-binds-undeclared",
        ),
        pytest.param(
            "Foo f = new Foo; f.run();",
            [("Foo", "f", (), (("run", 1),))], [], id="new-without-parentheses",
        ),
        pytest.param(
            "Reader r = new Reader(); r.in.read();",
            [("Reader", "r", (("in", 1),), (("<init>", 1),))], [], id="field-in-call-chain",
        ),
        pytest.param(
            "Map<String, List<Map<String, Integer>>> m = new HashMap<>(); m.put(k, v);",
            [("Map", "m", (), (("<init>", 1), ("put", 1)))], [], id="shift-closed-generics",
        ),
        pytest.param(
            "Map<String, List<String>> m = new HashMap<>(); m.put(a, b);",
            [("Map", "m", (), (("<init>", 1), ("put", 1)))], [], id="double-closed-generics",
        ),
        pytest.param(
            "x = (a + b) * c; x.run();", [], [], id="parenthesized-expression-is-no-cast",
        ),
        pytest.param("x = (foo) y; x.run();", [], [], id="lowercase-cast-is-no-type"),
        pytest.param(
            "x = (Foo) y; x.run();",
            [("Foo", "x", (), (("run", 1),))], [], id="cast-of-a-variable",
        ),
        pytest.param(
            "List<? extends Number> xs = make(); xs.size();",
            [("List", "xs", (), (("size", 1),))], [], id="wildcard-generics",
        ),
        pytest.param(
            "Socket[] socks = pool(); use(socks);",
            [("Socket", "socks", (), ())], [], id="array-declarator",
        ),
        pytest.param(
            "import static java.lang.Math.max; Socket s = new Socket(h, p); s.close();",
            [("Socket", "s", (), (("<init>", 1), ("close", 1)))], [], id="static-import",
        ),
        pytest.param(
            "try { f(); } catch (final @Deprecated IOException | java.sql.SQLException e) { log(e); }",
            [], [("IOException", "java.sql.SQLException")], id="annotated-catch-header",
        ),
    ],
)
def test_documented_object_and_catch_rules(text, objects, catch_types):
    unit = parse(text)
    assert [(o.type_name, o.variable_name, o.fields, o.methods) for o in unit.objects] == objects
    assert [c.exception_types for c in unit.handlers.catch_clauses] == catch_types


def test_complete_statement_is_full():
    unit = parse("a.run();")
    assert unit.parse_status is ParseStatus.FULL


def test_unopened_closer_fails_with_no_structure():
    unit = parse(
        "URL u = new URL(s);\n"
        "try { Reader r = new InputStreamReader(u.openStream()); }\n"
        "catch (IOException e) { log(e); }\n"
        "}"
    )
    assert unit.parse_status is ParseStatus.FAILED
    assert unit.handlers == HandlerInfo()
    assert unit.objects == ()
    assert unit.dependencies == ()


def test_multi_catch_types():
    unit = parse("try { go(); } catch (IOException | SQLException e) { log(e); }")
    assert unit.handlers.catch_clauses[0].exception_types == ("IOException", "SQLException")


def test_qualified_catch_type():
    unit = parse("try { go(); } catch (java.io.IOException e) { log(e); }")
    assert unit.handlers.catch_clauses[0].exception_types == ("java.io.IOException",)


def test_nested_try_blocks_counted():
    unit = parse(
        """
        try {
            try { inner(); } catch (IOException io) { retry(); }
        } catch (Exception e) {
            report(e);
        }
        """
    )
    assert unit.handlers.try_blocks == 2
    assert len(unit.handlers.catch_clauses) == 2


@pytest.mark.parametrize(
    "text, types, try_blocks, finally_blocks",
    [
        pytest.param(
            "try { try { } catch (A a) { } } catch (B b) { }", ["B", "A"], 2, 0,
            id="outer-try-first",
        ),
        pytest.param(
            "catch (A a) { } try { } catch (B b) { } catch (C c) { }", ["B", "C", "A"], 1, 0,
            id="orphans-last",
        ),
        pytest.param(
            "try { } catch (A a) { } finally { } catch (B b) { }", ["A", "B"], 1, 1,
            id="catch-after-finally",
        ),
        pytest.param("finally { } a.run();", [], 0, 0, id="finally-without-try"),
    ],
)
def test_catch_clause_order(text, types, try_blocks, finally_blocks):
    handlers = parse(text).handlers
    assert [t for c in handlers.catch_clauses for t in c.exception_types] == types
    assert (handlers.try_blocks, handlers.finally_blocks) == (try_blocks, finally_blocks)


def test_statement_significance_rules():
    unit = parse(
        """
        try { go(); } catch (Exception e) {
            e.printStackTrace();
            System.out.println("oops");
            System.err.println("oops");
            Log.warn("failed", e);
            throw new IllegalStateException(e);
        }
        """
    )
    clause = unit.handlers.catch_clauses[0]
    flags = [s.significant for s in clause.statements]
    assert flags == [False, False, False, True, True]
    assert clause.significant_count == 2


def test_empty_catch_has_no_statements():
    unit = parse("try { go(); } catch (Exception e) { }")
    assert unit.handlers.catch_clauses[0].statements == ()


def test_print_stack_trace_only_catch():
    unit = parse("try { go(); } catch (IOException e) { e.printStackTrace(); }")
    assert unit.handlers.catch_clauses[0].significant_count == 0


def test_multiline_statement_counts_once():
    unit = parse(
        'try { go(); } catch (E e) {\n'
        '    Dialog.open(a,\n'
        '        b, c);\n'
        '}'
    )
    assert len(unit.handlers.catch_clauses[0].statements) == 1


def test_control_structure_counts_as_one_statement():
    unit = parse(
        "try { go(); } catch (E e) {\n"
        "    if (canRetry) { retry(); } else { abort(); }\n"
        "    cleanup();\n"
        "}"
    )
    assert len(unit.handlers.catch_clauses[0].statements) == 2


def test_catch_parameter_not_tracked_as_object():
    unit = parse("try { go(); } catch (IOException e) { e.printStackTrace(); }")
    assert unit.objects == ()


def test_string_and_primitives_not_tracked():
    unit = parse('String s = "x"; int n = 0; Integer boxed = make();')
    assert unit.objects == ()


def test_imports_qualify_types():
    unit = parse("import java.net.URL;\nURL u = new URL(s);")
    assert unit.objects[0].type_name == "java.net.URL"
    assert unit.objects[0].simple_type == "URL"


def test_static_call_on_known_type_without_instance():
    unit = parse("Files f; long n = Files.copy(src, dst);")
    # declaring a Files variable makes the type known; static use merges there
    objs = by_var(unit)
    assert objs["f"].methods == (("copy", 1),)


def test_unknown_capitalized_receivers_ignored():
    unit = parse('Log.warn("x"); MessageDialog.openError(shell, "y");')
    assert unit.objects == ()


def test_for_each_declaration_tracked():
    unit = parse("for (URL u : all) { u.openConnection(); }")
    objs = by_var(unit)
    assert objs["u"].methods == (("openConnection", 1),)


def test_generic_declaration_tracked():
    unit = parse("List<String> names = new ArrayList<String>(); names.add(x);")
    objs = by_var(unit)
    assert objs["names"].type_name == "List"
    assert objs["names"].methods == (("<init>", 1), ("add", 1))


def test_method_call_count_consistency():
    unit = parse("A a = new A(); a.f(); a.f(); a.g(); b.untracked();")
    total = sum(count for u in unit.objects for name, count in u.methods if name != "<init>")
    assert total == 3  # f, f, g; the unbound receiver is ignored
    assert unit.objects[0].methods == (("<init>", 1), ("f", 2), ("g", 1))


def test_determinism():
    text = (
        "import java.net.URL;\n"
        "URL u = new URL(s);\n"
        "try { u.openConnection(); } catch (IOException e) { log(e); }\n"
    )
    first, second = parse(text), parse(text)
    assert first.objects == second.objects
    assert first.dependencies == second.dependencies
    assert first.handlers == second.handlers
    assert first.parse_status == second.parse_status


def test_handler_sloc_never_exceeds_sloc():
    for text in (
        "try { a(); } catch (E e) { b(); }",
        "try { a(); } finally { b(); }",
        "x();",
    ):
        unit = parse(text)
        assert unit.handlers.handler_sloc <= unit.sloc


def test_sloc_never_exceeds_physical_lines(listing1, listing2):
    for unit in (listing1, listing2, parse("int a;\n\n// c\nint b;")):
        assert 0 <= unit.sloc <= len(unit.raw_text.splitlines())


def test_failed_unit_rejects_objects():
    with pytest.raises(ValueError):
        from catchrec.model import GraphObject, HandlerInfo, SourceUnit

        SourceUnit(
            raw_text="x",
            texts=(),
            kinds=(),
            lines=(),
            code_lines=frozenset({1}),
            comment_lines=frozenset(),
            handlers=HandlerInfo(),
            objects=(GraphObject("A", 0, "a", (), ()),),
            parse_status=ParseStatus.FAILED,
        )


def test_source_unit_is_frozen(listing1):
    with pytest.raises(dataclasses.FrozenInstanceError):
        listing1.objects = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        listing1.objects[0].methods = ()
