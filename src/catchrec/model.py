"""Parsed representation of a source fragment.

A :class:`SourceUnit` is what the rest of the pipeline consumes: the token
stream, its SLOC and comment lines, try/catch structure, and the API objects
the fragment uses with the data dependencies between them. The objects and
dependencies are the nodes and edges of the unit's usage graph
(:mod:`catchrec.graph`). Units are built by :func:`catchrec.parser.parse`
and are frozen. A unit is a :class:`~catchrec.lexer.ScanResult`, so its
token stream is the scan's three parallel tuples, ``texts``, ``kinds`` and
``lines``, with :class:`~catchrec.lexer.Token` objects only as the
on-demand ``tokens`` view. The scorers' weight classes share the check in
:class:`Weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .lexer import ScanResult


# The largest weight accepted. Scores are weighted sums of counts and
# fractions, so a weight this size keeps every score, normalization and
# fused total finite; near the float maximum their sums overflow to
# infinity and the pool normalization turns them into NaN.
MAX_WEIGHT = 1e6


def check_weight(name: str, value: object) -> float:
    """``value`` as a float if it is a finite, non-negative int or float
    (not a bool) of at most :data:`MAX_WEIGHT`; an int too large for a
    float counts as infinite."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        weight = float(value) if is_number else math.nan
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight) or weight < 0:
        raise ValueError(f"{name} must be a finite non-negative number")
    if weight > MAX_WEIGHT:
        raise ValueError(f"{name} must be at most {MAX_WEIGHT:,.0f}")
    return weight


@dataclass(frozen=True)
class Weights:
    """Every field of a weight class must pass :func:`check_weight`."""

    def __post_init__(self) -> None:
        for f in fields(self):
            check_weight(f.name, getattr(self, f.name))


class ParseStatus(Enum):
    FULL = "Full"
    PARTIAL = "Partial"
    FAILED = "Failed"


@dataclass(frozen=True)
class StatementInfo:
    text: str
    significant: bool


@dataclass(frozen=True)
class CatchClause:
    exception_types: tuple[str, ...]
    statements: tuple[StatementInfo, ...]

    @property
    def significant_count(self) -> int:
        return sum(1 for s in self.statements if s.significant)


@dataclass(frozen=True)
class HandlerInfo:
    try_blocks: int = 0
    catch_clauses: tuple[CatchClause, ...] = ()
    finally_blocks: int = 0
    handler_sloc: int = 0


CONSTRUCTOR_NAME = "<init>"


@dataclass(frozen=True)
class GraphObject:
    """One tracked API object: a variable, a static pseudo-object (empty
    variable name), or an anonymous constructor argument."""

    type_name: str
    ordinal: int  # position among same-type objects, declaration order
    variable_name: str
    fields: tuple[tuple[str, int], ...]   # (name, multiplicity), sorted
    methods: tuple[tuple[str, int], ...]  # includes ("<init>", 1) when constructed

    @property
    def simple_type(self) -> str:
        return self.type_name.rsplit(".", 1)[-1]

    @property
    def label(self) -> str:
        return f"{self.type_name}#{self.ordinal}"


@dataclass(frozen=True)
class DependencyEdge:
    """Data flow between tracked objects: ``consumer`` received ``producer``
    (or a member accessed on it, named by ``access_point``) as an argument."""

    consumer: int  # index into SourceUnit.objects
    producer: int
    access_point: str = ""


@dataclass(frozen=True, kw_only=True)
class SourceUnit(ScanResult):
    """The scan of ``raw_text`` (token stream, code and comment lines) plus
    what the parser recovered from it."""

    raw_text: str
    handlers: HandlerInfo
    objects: tuple[GraphObject, ...]
    parse_status: ParseStatus
    dependencies: tuple[DependencyEdge, ...] = ()

    def __post_init__(self) -> None:
        if self.parse_status is ParseStatus.FAILED and (self.objects or self.handlers.catch_clauses):
            raise ValueError("failed parse must not carry objects or handlers")

    @property
    def sloc(self) -> int:
        """Source lines carrying at least one token."""
        return len(self.code_lines)
