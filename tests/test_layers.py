"""The scoring layers stand below the corpus: none of them imports the
corpus, the evaluation harness or the command line."""

import ast
from pathlib import Path

import pytest

import catchrec

_PACKAGE = Path(catchrec.__file__).parent
_ABOVE = {"corpus", "evaluation", "cli"}


def _imported(tree: ast.AST):
    """Every dotted name a module's import statements bind or read from,
    relative imports resolved against ``catchrec``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["catchrec" if node.level else "", node.module or ""]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("name", ["lexical", "quality", "structural", "ranking"])
def test_a_scoring_module_imports_nothing_from_the_layers_above(name):
    tree = ast.parse((_PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    above = {n for n in _imported(tree) if n.split(".")[:2] in [["catchrec", m] for m in _ABOVE]}
    assert above == set()


def test_the_import_walk_sees_every_form_of_import():
    tree = ast.parse(
        "from .corpus import Candidate\nfrom . import cli\n"
        "import catchrec.evaluation\nfrom catchrec.corpus import judge\n"
    )
    names = set(_imported(tree))
    assert {"catchrec.corpus", "catchrec.cli", "catchrec.evaluation"} <= names
