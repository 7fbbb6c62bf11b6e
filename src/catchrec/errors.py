"""Exception types shared across the package, and the one input-file reader."""

from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class CatchrecError(Exception):
    """Base class for all package-specific errors."""


class GraphUnavailable(CatchrecError):
    """Usage-graph extraction was requested for a unit that failed to parse."""


class StructureUnavailable(CatchrecError):
    """Structural scoring needs two parsed units; at least one failed to parse."""


class EmptyUnit(CatchrecError):
    """The operation needs a unit with at least one source line."""


class NoApiObjects(CatchrecError):
    """No trackable API objects were found in the unit."""


class UnknownException(CatchrecError):
    """No exception could be inferred; an explicit name is required."""


class EmptyPool(CatchrecError):
    """Ranking or normalization was called with an empty candidate pool."""


class ConfigError(CatchrecError):
    """An input file cannot be read or holds unknown, invalid or malformed entries."""


def read_input(path: str | Path, what: str, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the UTF-8 text of the input file ``path``. A file that
    cannot be read, is not UTF-8 or that ``parse`` rejects (nesting too deep
    included) raises one :class:`ConfigError` naming it as ``what``."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {type(exc).__name__}: {exc}") from exc


class CorpusError(CatchrecError):
    """Base for corpus construction failures."""


class AuthMissing(CorpusError):
    """No auth token is available for the remote search API."""


class RateLimited(CorpusError):
    """The remote search API kept rate-limiting after bounded retries."""


class NetworkFailure(CorpusError):
    """A remote request failed at the transport level."""
