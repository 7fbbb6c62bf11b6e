"""Fragment parser: tokens in, :class:`SourceUnit` out.

Works directly on the scan's parallel ``texts`` and ``kinds`` tuples, read
by index. Where a rule names a keyword or a punctuation mark, the text
alone decides, because no identifier is spelled like a keyword and a
literal keeps its quotes. One pass matches every ``{`` and ``(``
with its closer, so incomplete or non-compilable fragments degrade instead
of erroring: a fragment with a closer that has no opener cannot be segmented
at all and is marked ``Failed`` (tokens stay available for the lexical
path). An opener left unclosed, a last token other than ``;``, ``{`` or
``}``, or a catch without a try marks the fragment ``Partial``. A try claims
each catch or finally that directly follows its block. The catch clauses
are the claimed ones in try order, then the orphans in text order; a
finally that follows no try block is ignored.

Type resolution is purely syntactic. An object's type comes from its
declaration, a ``new T(...)`` expression, or a cast; calls on receivers that
cannot be resolved to a tracked object are kept as tokens but ignored for
object accounting. Static member access ``T.m`` on a type that is known to
the unit attaches to the earliest tracked object of that type, or creates a
pseudo-object with an empty variable name when no instance exists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import read_input
from .lexer import ScanResult, TokenKind, scan
from .model import (
    CONSTRUCTOR_NAME,
    CatchClause,
    DependencyEdge,
    GraphObject,
    HandlerInfo,
    ParseStatus,
    SourceUnit,
    StatementInfo,
)

# Types never tracked as API objects: primitives, their boxes, and plain
# value types. Everything else (collections, IO, user classes) is tracked.
UNTRACKED_TYPES = frozenset(
    {
        "boolean", "byte", "char", "short", "int", "long", "float", "double", "void",
        "Boolean", "Byte", "Character", "Short", "Integer", "Long", "Float", "Double",
        "String", "CharSequence", "Object", "Void", "Number",
        "var",  # contextual keyword; the declared type is unrecoverable
    }
)

# Exception types considered generic catch-alls rather than specific choices.
GENERIC_EXCEPTIONS = frozenset(
    {"Exception", "Throwable", "java.lang.Exception", "java.lang.Throwable"}
)

_DECL_FOLLOW = frozenset({"=", ";", ":", ",", ")"})
_STMT_CONTINUATIONS = frozenset({"catch", "finally", "else", "while"})


def parse(raw_text: str, scanned: ScanResult | None = None) -> SourceUnit:
    """Parse ``raw_text`` into a :class:`SourceUnit`; never raises.
    ``scanned`` must be ``scan(raw_text)`` when given; ``raw_text`` is
    scanned only when it is not."""
    result = scan(raw_text) if scanned is None else scanned
    texts = result.texts
    brackets = _brackets(texts)
    if brackets is None:
        status = ParseStatus.FAILED
        handlers, objects, dependencies = HandlerInfo(), (), ()
    else:
        closers, unclosed = brackets
        handlers, catch_headers, orphan = _handler_structure(result, closers)
        objects, dependencies = _ObjectExtractor(texts, result.kinds, catch_headers).run()
        mid_statement = bool(texts) and texts[-1] not in {";", "{", "}"}
        partial = unclosed or mid_statement or orphan
        status = ParseStatus.PARTIAL if partial else ParseStatus.FULL
    return SourceUnit(
        **vars(result),
        raw_text=raw_text,
        handlers=handlers,
        objects=objects,
        parse_status=status,
        dependencies=dependencies,
    )


def parse_file(path: str | Path) -> SourceUnit:
    """Parse a UTF-8 source file; a file that cannot be read or is not UTF-8
    raises :class:`ConfigError` naming it."""
    return parse(read_input(path, "source file", str))


def _brackets(texts: tuple[str, ...]) -> tuple[dict[int, int], bool] | None:
    """Index of the closer of every closed ``{`` and ``(``, keyed by the
    opener's index, and whether any opener is left unclosed; ``None`` when
    a ``}`` or ``)`` has no opener of its kind before it."""
    closers: dict[int, int] = {}
    open_braces: list[int] = []
    open_parens: list[int] = []
    for i, text in enumerate(texts):
        if text == "{":
            open_braces.append(i)
        elif text == "(":
            open_parens.append(i)
        elif text == "}" or text == ")":
            stack = open_braces if text == "}" else open_parens
            if not stack:
                return None
            closers[stack.pop()] = i
    return closers, bool(open_braces or open_parens)


# ---------------------------------------------------------------------------
# try / catch / finally structure
# ---------------------------------------------------------------------------


def _handler_structure(
    scanned: ScanResult, closers: dict[int, int]
) -> tuple[HandlerInfo, set[int], bool]:
    """The try/catch/finally structure from one pass over the tokens, the
    index of every catch-header token (``catch`` through its ``)``), and
    whether some catch follows no try block."""
    texts, kinds, lines = scanned.texts, scanned.kinds, scanned.lines
    n = len(texts)
    try_blocks = finally_blocks = 0
    catches: list[CatchClause] = []
    orphans: list[CatchClause] = []
    claimed: set[int] = set()
    header_indices: set[int] = set()
    handler_lines: set[int] = set()

    def read_clause(k: int) -> int:
        """Read the catch or finally at ``k``; the index past it. A group
        left unclosed ends at the last token."""
        is_catch = texts[k] == "catch"
        j = k + 1
        types: tuple[str, ...] = ()
        if is_catch and j < n and texts[j] == "(":
            close = closers.get(j, n - 1)
            types = _catch_types(texts[j + 1 : close], kinds[j + 1 : close])
            header_indices.update(range(k, close + 1))
            j = close + 1
        statements: tuple[StatementInfo, ...] = ()
        end_line = lines[k]
        if j < n and texts[j] == "{":
            close = closers.get(j, n - 1)
            if is_catch:
                statements = _split_statements(texts[j + 1 : close], kinds[j + 1 : close])
            end_line = lines[close]
            j = close + 1
        handler_lines.update(range(lines[k], end_line + 1))
        if is_catch:
            clause = CatchClause(exception_types=types, statements=statements)
            (catches if k in claimed else orphans).append(clause)
        return j

    for i, text in enumerate(texts):
        if text == "try":
            try_blocks += 1
            j = i + 1
            if j < n and texts[j] == "(":  # try-with-resources header
                j = closers.get(j, n - 1) + 1
            if j < n and texts[j] == "{":
                j = closers.get(j, n - 1) + 1
            while j < n and texts[j] in ("catch", "finally"):
                if texts[j] == "catch":
                    claimed.add(j)
                else:
                    finally_blocks += 1
                j = read_clause(j)
        elif text == "catch" and i not in claimed:  # a claiming try comes earlier
            read_clause(i)

    info = HandlerInfo(
        try_blocks=try_blocks,
        catch_clauses=tuple(catches + orphans),
        finally_blocks=finally_blocks,
        handler_sloc=len(handler_lines & scanned.code_lines),
    )
    return info, header_indices, bool(orphans)


def _catch_types(texts: tuple[str, ...], kinds: tuple[TokenKind, ...]) -> tuple[str, ...]:
    """Exception type names from a catch header; the parameter name and any
    ``final`` or annotation is dropped, multi-catch segments all kept."""
    segments: list[list[str]] = [[]]
    chain: list[str] = []
    pending_dot = False
    skip_annotation = False

    def close_chain() -> None:
        nonlocal chain
        if chain:
            segments[-1].append(".".join(chain))
            chain = []

    for text, kind in zip(texts, kinds):
        if text == "|":
            close_chain()
            segments.append([])
            pending_dot = False
        elif text == "@":
            close_chain()
            skip_annotation = True
        elif kind is TokenKind.IDENTIFIER:
            if skip_annotation:
                skip_annotation = False
                continue
            if chain and not pending_dot:
                close_chain()
            chain.append(text)
            pending_dot = False
        elif text == ".":
            pending_dot = True
        else:
            close_chain()
            pending_dot = False
    close_chain()

    return tuple(seg[0] for seg in segments if seg)


def _split_statements(
    texts: tuple[str, ...], kinds: tuple[TokenKind, ...]
) -> tuple[StatementInfo, ...]:
    """Top-level statements of a block; multi-line calls stay single
    statements, a control structure with its block counts as one."""
    statements: list[StatementInfo] = []
    start = 0  # first token of the current statement
    brace = paren = 0
    n = len(texts)
    for idx, text in enumerate(texts):
        end = idx + 1
        if text == "{":
            brace += 1
        elif text == "}":
            brace -= 1
            if brace == 0 and paren == 0:
                nxt = texts[end] if end < n else ""
                if nxt not in _STMT_CONTINUATIONS:
                    _flush(statements, texts[start:end], kinds[start:end])
                    start = end
        elif text == "(":
            paren += 1
        elif text == ")":
            paren = max(0, paren - 1)
        elif text == ";" and brace == 0 and paren == 0:
            _flush(statements, texts[start:end], kinds[start:end])
            start = end
    _flush(statements, texts[start:], kinds[start:])
    return tuple(statements)


def _flush(
    statements: list[StatementInfo], texts: tuple[str, ...], kinds: tuple[TokenKind, ...]
) -> None:
    meaningful = [i for i, text in enumerate(texts) if text != ";"]
    if not meaningful:
        return
    statements.append(
        StatementInfo(
            text=" ".join(texts).strip(),
            significant=_is_significant(
                [texts[i] for i in meaningful], [kinds[i] for i in meaningful]
            ),
        )
    )


def _is_significant(texts: list[str], kinds: list[TokenKind]) -> bool:
    """Stack-trace prints and console writes are noise; everything else is a
    real handler action (logging frameworks and UI notifications included)."""
    chain: list[str] = []
    i = 0
    n = len(texts)
    while i < n and kinds[i] is TokenKind.IDENTIFIER:
        chain.append(texts[i])
        if i + 1 < n and texts[i + 1] == ".":
            i += 2
        else:
            i += 1
            break
    if not chain or i >= n or texts[i] != "(":
        return True  # not a plain call statement
    if chain[-1] == "printStackTrace":
        return False
    if len(chain) >= 2 and chain[0] == "System" and chain[1] in {"out", "err"}:
        return False
    return True


# ---------------------------------------------------------------------------
# API object and data-dependency extraction
# ---------------------------------------------------------------------------


@dataclass
class _Use:
    """An object use while the walk still counts its accesses."""

    variable_name: str
    type_name: str
    fields: Counter = field(default_factory=Counter)
    methods: Counter = field(default_factory=Counter)
    constructed: bool = False


class _ObjectExtractor:
    """Single forward walk collecting object uses and data dependencies.

    A stack of "consumers" mirrors open call parentheses: a tracked object
    referenced inside a call's arguments yields a dependency edge from the
    innermost enclosing consumer. Grouping parentheses inherit the current
    consumer; calls on untracked receivers push ``None`` and so absorb the
    references inside their own arguments.
    """

    def __init__(self, texts: tuple[str, ...], kinds: tuple[TokenKind, ...], excluded: set[int]):
        self.texts = texts
        self.kinds = kinds
        self.excluded = excluded
        self.uses: list[_Use] = []
        self.bindings: dict[str, int] = {}
        self.known_types: dict[str, str] = {}
        self.imports: dict[str, str] = {}
        self.deps: set[tuple[int, int, str]] = set()
        self.paren_stack: list[int | None] = []

    # -- helpers ----------------------------------------------------------

    def _chain(self, i: int) -> tuple[list[str], int]:
        """The dotted identifier chain starting at ``i``: its parts, and the
        index just past it."""
        texts, kinds = self.texts, self.kinds
        parts = [texts[i]]
        j = i + 1
        while (
            j + 1 < len(texts)
            and texts[j] == "."
            and kinds[j + 1] is TokenKind.IDENTIFIER
        ):
            parts.append(texts[j + 1])
            j += 2
        return parts, j

    def _skip_generics(self, j: int) -> int | None:
        texts, kinds = self.texts, self.kinds
        if j >= len(texts) or texts[j] != "<":
            return None
        depth = 0
        steps = 0
        while j < len(texts) and steps < 64:
            text = texts[j]
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            elif text in {",", ".", "?", "[", "]"}:
                pass
            elif kinds[j] is TokenKind.IDENTIFIER:
                pass
            elif kinds[j] is TokenKind.KEYWORD and text in {
                "extends", "super", "int", "long", "double", "float",
                "boolean", "byte", "short", "char",
            }:
                pass
            else:
                return None
            j += 1
            steps += 1
            if depth <= 0:
                return j if depth == 0 else None
        return None

    def _resolve(self, type_text: str) -> str:
        if "." in type_text:
            return type_text
        return self.imports.get(type_text, type_text)

    def _register_type(self, type_text: str) -> str:
        canonical = self._resolve(type_text)
        self.known_types[type_text] = canonical
        self.known_types[canonical] = canonical
        self.known_types[canonical.rsplit(".", 1)[-1]] = canonical
        return canonical

    @staticmethod
    def _trackable(canonical: str) -> bool:
        return canonical.rsplit(".", 1)[-1] not in UNTRACKED_TYPES

    def _use_for_var(self, var: str, canonical: str) -> int:
        idx = self.bindings.get(var)
        if idx is not None and self.uses[idx].type_name == canonical:
            return idx
        self.uses.append(_Use(var, canonical))
        self.bindings[var] = len(self.uses) - 1
        return len(self.uses) - 1

    def _use_for_type(self, canonical: str) -> int:
        """Static access: earliest object of the type, else a pseudo-object."""
        for idx, use in enumerate(self.uses):
            if use.type_name == canonical:
                return idx
        self.uses.append(_Use("", canonical))
        return len(self.uses) - 1

    def _enclosing(self) -> int | None:
        return self.paren_stack[-1] if self.paren_stack else None

    def _add_dep(self, consumer: int | None, producer: int, access_point: str) -> None:
        if consumer is None or consumer == producer:
            return
        self.deps.add((consumer, producer, access_point))

    # -- main walk ---------------------------------------------------------

    def run(self) -> tuple[tuple[GraphObject, ...], tuple[DependencyEdge, ...]]:
        """The objects and dependency edges, frozen, from one walk over the tokens."""
        self._walk()
        ordinals: Counter = Counter()
        objects = []
        for use in self.uses:
            methods = Counter(use.methods)
            if use.constructed:
                methods[CONSTRUCTOR_NAME] += 1
            objects.append(
                GraphObject(
                    type_name=use.type_name,
                    ordinal=ordinals[use.type_name],
                    variable_name=use.variable_name,
                    fields=tuple(sorted(use.fields.items())),
                    methods=tuple(sorted(methods.items())),
                )
            )
            ordinals[use.type_name] += 1
        dependencies = tuple(DependencyEdge(c, p, a) for c, p, a in sorted(self.deps))
        return tuple(objects), dependencies

    def _walk(self) -> None:
        """Branch on each token's kind, identifiers first. Only the tokens
        the walk acts on (an identifier, ``(``, ``)``, ``new`` and
        ``import``) are looked up in ``excluded``; any other token just
        advances the walk, excluded or not."""
        texts, kinds, excluded = self.texts, self.kinds, self.excluded
        paren_stack = self.paren_stack
        identifier = TokenKind.IDENTIFIER
        punctuation = TokenKind.PUNCTUATION
        keyword = TokenKind.KEYWORD
        n = len(texts)
        i = 0
        while i < n:
            kind = kinds[i]
            if kind is identifier:
                i = i + 1 if i in excluded else self._handle_identifier(i)
            elif kind is punctuation:
                text = texts[i]
                if text == "(":
                    if i not in excluded:
                        paren_stack.append(paren_stack[-1] if paren_stack else None)
                elif text == ")":
                    if paren_stack and i not in excluded:
                        paren_stack.pop()
                i += 1
            elif kind is keyword:
                text = texts[i]
                if text == "new" and i not in excluded:
                    i = self._handle_new(i)
                elif text == "import" and i not in excluded:
                    i = self._handle_import(i)
                else:
                    i += 1
            else:
                i += 1

    def _handle_import(self, i: int) -> int:
        texts, kinds = self.texts, self.kinds
        j = i + 1
        if j < len(texts) and texts[j] == "static":
            while j < len(texts) and texts[j] != ";":
                j += 1
            return j + 1
        parts: list[str] = []
        wildcard = False
        while j < len(texts) and texts[j] != ";":
            if kinds[j] is TokenKind.IDENTIFIER:
                parts.append(texts[j])
            elif texts[j] == "*":
                wildcard = True
            j += 1
        if parts and not wildcard:
            self.imports[parts[-1]] = ".".join(parts)
        return j + 1

    def _handle_new(self, i: int) -> int:
        texts = self.texts
        j = i + 1
        if j >= len(texts) or self.kinds[j] is not TokenKind.IDENTIFIER:
            return i + 1
        parts, end = self._chain(j)
        j = end
        gen = self._skip_generics(j)
        if gen is not None:
            j = gen
        if j < len(texts) and texts[j] == "[":
            self._register_type(".".join(parts))
            return j  # array creation: no object use
        if j >= len(texts) or texts[j] != "(":
            return end
        canonical = self._register_type(".".join(parts))
        consumer: int | None = None
        if self._trackable(canonical):
            var = self._assigned_var(i)
            if var is not None and var in self.bindings:
                idx = self.bindings[var]
                self.uses[idx].constructed = True
                consumer = idx
            elif var is not None:
                idx = self._use_for_var(var, canonical)
                self.uses[idx].constructed = True
                consumer = idx
            else:
                self.uses.append(_Use("", canonical, constructed=True))
                idx = len(self.uses) - 1
                self._add_dep(self._enclosing(), idx, "")
                consumer = idx
        self.paren_stack.append(consumer)
        return j + 1

    def _assigned_var(self, new_idx: int) -> str | None:
        texts = self.texts
        if (
            new_idx >= 2
            and texts[new_idx - 1] == "="
            and self.kinds[new_idx - 2] is TokenKind.IDENTIFIER
        ):
            return texts[new_idx - 2]
        return None

    def _handle_identifier(self, i: int) -> int:
        texts, kinds = self.texts, self.kinds
        n = len(texts)
        parts = [texts[i]]  # the dotted chain, read as in ``_chain``
        j = i + 1
        while j + 1 < n and texts[j] == "." and kinds[j + 1] is TokenKind.IDENTIFIER:
            parts.append(texts[j + 1])
            j += 2

        # A declaration needs an identifier after optional generics and
        # ``[]`` pairs; a cast binding needs ``= (`` after a single name.
        follow = texts[j] if j < n else ""
        if follow == "<" or follow == "[" or (j < n and kinds[j] is TokenKind.IDENTIFIER):
            decl_end = self._declaration(parts, j)
            if decl_end is not None:
                return decl_end
        elif follow == "=" and len(parts) == 1:
            cast_end = self._cast_binding(parts, j)
            if cast_end is not None:
                return cast_end

        head = parts[0]
        is_call = follow == "("

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

    def _receiver_use(self, head: str) -> int | None:
        if head in self.bindings:
            return self.bindings[head]
        if head in self.known_types:
            canonical = self.known_types[head]
            if self._trackable(canonical):
                return self._use_for_type(canonical)
        return None

    def _declaration(self, parts: list[str], j: int) -> int | None:
        """``Type var`` followed by ``= ; : , )`` binds ``var``."""
        texts = self.texts
        n = len(texts)
        jj = j
        gen = self._skip_generics(jj)
        if gen is not None:
            jj = gen
        while jj + 1 < n and texts[jj] == "[" and texts[jj + 1] == "]":
            jj += 2
        if jj >= n or self.kinds[jj] is not TokenKind.IDENTIFIER:
            return None
        follow = texts[jj + 1] if jj + 1 < n else ";"
        if follow not in _DECL_FOLLOW:
            return None
        canonical = self._register_type(".".join(parts))
        if self._trackable(canonical):
            self._use_for_var(texts[jj], canonical)
        return jj + 1

    def _cast_binding(self, parts: list[str], j: int) -> int | None:
        """``x = (T) value`` binds ``x`` when it has no declaration here."""
        texts, kinds = self.texts, self.kinds
        n = len(texts)
        if len(parts) != 1 or j >= n or texts[j] != "=":
            return None
        if j + 1 >= n or texts[j + 1] != "(":
            return None
        k = j + 2
        if k >= n or kinds[k] is not TokenKind.IDENTIFIER:
            return None
        type_parts, k = self._chain(k)
        if k >= n or texts[k] != ")":
            return None
        type_text = ".".join(type_parts)
        looks_like_type = type_text in self.known_types or (
            type_text[0].isupper()
            and k + 1 < n
            and (kinds[k + 1] is TokenKind.IDENTIFIER or texts[k + 1] == "new")
        )
        if not looks_like_type:
            return None
        canonical = self._register_type(type_text)
        var = parts[0]
        if var not in self.bindings and self._trackable(canonical):
            self._use_for_var(var, canonical)
        return k + 1
