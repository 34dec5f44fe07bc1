"""Every entry point the traced benchmark run patches must exist.

`perfbench/tracing.py` wraps the functions and methods listed in its
`TARGETS` table by name; a rename in `src/` would otherwise surface only
when a traced benchmark run fails.  The table is loaded by path, so the
benchmark directory needs no package marker and is not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("hamca_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("span, module, attribute", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves_to_a_callable(span, module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"{span}: {module}.{attribute} is not callable"
