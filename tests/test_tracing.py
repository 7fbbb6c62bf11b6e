"""The bench times catchrec's layers by wrapping the functions that
``bench/tracing.py`` names in ``TARGETS``; a renamed or removed one must
fail here, not only in a bench run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import TARGETS, Tracer  # noqa: E402


def test_every_traced_name_is_a_catchrec_callable():
    for _span, module, function in TARGETS:
        assert module.startswith("catchrec."), module
        assert callable(getattr(importlib.import_module(module), function, None)), (module, function)


def test_tracer_installs_every_target():
    for _span, module, _function in TARGETS:
        importlib.import_module(module)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
