"""The benchmark's per-layer tracer names softalign functions by string.

``bench/layertrace.py`` resolves every ``LAYER_FUNCTIONS`` entry with
``getattr`` when ``--trace 1`` installs it, so a renamed or deleted
function would only fail there.  This loads that file (without running
or changing anything in ``bench/``) and checks every name here instead.
"""

import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def layer_functions():
    namespace = {"__name__": "bench_layertrace"}  # executed from source: no bytecode is cached
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace["LAYER_FUNCTIONS"]


@pytest.mark.parametrize("name", layer_functions())
def test_traced_layer_resolves_to_a_callable(name):
    mod_name, fn_name = name.rsplit(".", 1)
    module = importlib.import_module("softalign." + mod_name)
    assert callable(getattr(module, fn_name, None)), name
