"""Two-term search query formulation: exception name plus dominant API class.

The exception comes from the context itself when a specific type is caught;
generic catch-all handlers fall back to a knowledge base mapping API methods
to the checked exceptions they declare. The knowledge base is a plain TSV
data file so it can be extended without touching code.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import NoApiObjects, UnknownException, read_input
from .model import SourceUnit
from .parser import GENERIC_EXCEPTIONS


@dataclass(frozen=True)
class SearchQuery:
    exception_name: str
    dominant_class: str

    def __post_init__(self) -> None:
        if not self.exception_name or not self.dominant_class:
            raise ValueError("both query terms must be non-empty")

    @property
    def rendered(self) -> str:
        return f"{self.exception_name} {self.dominant_class}"


class ExceptionKnowledgeBase:
    """(type, method) -> checked exception names, loaded from TSV.

    File format: three tab-separated columns: simple type name, method name
    (``<init>`` for constructors), comma-separated exception names. Blank
    lines and ``#`` comments are skipped. Lookups are case-sensitive.
    """

    def __init__(self, entries: dict[tuple[str, str], tuple[str, ...]]):
        self.entries = dict(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExceptionKnowledgeBase":
        return read_input(path, "knowledge base", cls._parse)

    @classmethod
    def bundled(cls) -> "ExceptionKnowledgeBase":
        text = (
            resources.files("catchrec").joinpath("data/exceptions.tsv").read_text("utf-8")
        )
        return cls._parse(text)

    @classmethod
    def _parse(cls, text: str) -> "ExceptionKnowledgeBase":
        entries: dict[tuple[str, str], tuple[str, ...]] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"knowledge base line {lineno}: expected 3 columns")
            type_name, method, exceptions = (p.strip() for p in parts)
            names = tuple(dict.fromkeys(e.strip() for e in exceptions.split(",") if e.strip()))
            key = (type_name, method)
            if key in entries:
                names = tuple(dict.fromkeys(entries[key] + names))
            entries[key] = names
        return cls(entries)

    def lookup(self, type_name: str, method: str) -> tuple[str, ...]:
        return self.entries.get((type_name, method), ())

    def known_exceptions(self) -> frozenset[str]:
        return frozenset(name for names in self.entries.values() for name in names)

    def __len__(self) -> int:
        return len(self.entries)


def dominant_api_class(unit: SourceUnit) -> str:
    """Simple name of the most actively used API type: highest combined
    method-invocation and field-access volume (a constructor call counts
    as one invocation), earliest first use on ties."""
    if not unit.objects:
        raise NoApiObjects("no API objects tracked in this unit")
    activity: dict[str, int] = {}  # simple name -> volume, in first-use order
    for obj in unit.objects:
        volume = sum(count for _name, count in obj.fields + obj.methods)
        activity[obj.simple_type] = activity.get(obj.simple_type, 0) + volume
    return max(activity, key=activity.__getitem__)  # max keeps the first of equals


def select_exception(
    unit: SourceUnit,
    kb: ExceptionKnowledgeBase,
    explicit: str | None = None,
) -> str:
    """Exception term for the query: explicit override first, then the first
    specifically-caught type, then the checked exception most frequently
    associated with the invoked API methods (alphabetical on ties).

    An explicit name must look like an exception type (suffix ``Exception``
    or ``Error``) or be one the knowledge base lists, so a typo'd class name
    cannot silently become a search term. A qualified name, explicit or
    caught, gives its simple name, the one a token can match."""
    if explicit is not None:
        name = explicit.rsplit(".", 1)[-1]
        if name.endswith("Exception") or name.endswith("Error") or name in kb.known_exceptions():
            return name
        raise UnknownException(
            f"{explicit!r} does not look like an exception type and the "
            "knowledge base does not list it"
        )

    caught = [
        t
        for clause in unit.handlers.catch_clauses
        for t in clause.exception_types
        if t not in GENERIC_EXCEPTIONS
    ]
    if caught:
        return caught[0].rsplit(".", 1)[-1]

    tally: dict[str, int] = {}
    for obj in unit.objects:
        for method, count in obj.methods:  # constructors appear as <init>
            for exc in kb.lookup(obj.simple_type, method):
                tally[exc] = tally.get(exc, 0) + count
    if not tally:
        raise UnknownException(
            "no exception could be inferred from the knowledge base; pass one explicitly"
        )
    return min(tally, key=lambda name: (-tally[name], name))


def formulate_query(
    unit: SourceUnit,
    kb: ExceptionKnowledgeBase,
    explicit: str | None = None,
) -> SearchQuery:
    """Compose the rendered two-term query, exception first."""
    dominant = dominant_api_class(unit)  # object-free units fail here first
    return SearchQuery(
        exception_name=select_exception(unit, kb, explicit),
        dominant_class=dominant,
    )
