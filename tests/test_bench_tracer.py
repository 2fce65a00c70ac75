"""The benchmark tracer's wrap sites still name package functions.

``bench/tracer.py`` replaces each ``(module, attribute)`` of its ``SITES``
with a timing wrapper. A site whose function was deleted or renamed
would break every traced bench run, so each one must resolve to a
callable. The tracer is loaded from its file, as the bench runs it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


@pytest.mark.parametrize("site", _sites(), ids=lambda site: f"{site[0]}.{site[1]}")
def test_tracer_site_resolves_to_a_callable(site):
    module_name, attribute = site[:2]
    assert callable(getattr(importlib.import_module(module_name), attribute, None))
