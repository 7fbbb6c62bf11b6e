import os
from pathlib import Path

import pytest

import catchrec
from catchrec import parse
from catchrec.corpus import Candidate, LocalOrigin

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def _outside_the_checkout(tmp_path_factory):
    """Every test runs in a scratch directory, so that a CLI run's default
    cache directory (``.catchrec-cache``) never lands in the checkout; a
    subprocess started there still imports this catchrec."""
    src = str(Path(catchrec.__file__).resolve().parent.parent)
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    patch.chdir(tmp_path_factory.mktemp("cwd"))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def listing1():
    return parse((FIXTURES / "listing1.java").read_text())


@pytest.fixture(scope="session")
def listing2():
    return parse((FIXTURES / "listing2.java").read_text())


@pytest.fixture(scope="session")
def rank_pool() -> list[Candidate]:
    return [
        Candidate.from_origin(LocalOrigin(path.name), path.read_text())
        for path in sorted((FIXTURES / "rankpool").glob("*.java"))
    ]


@pytest.fixture(scope="session")
def pool_names(rank_pool) -> dict[str, str]:
    return {c.id: c.origin.path for c in rank_pool}
