"""Every entry point the traced benchmark run patches must exist.

`perfbench/tracing.py` wraps the functions and methods listed in its
`TARGETS` table by name; a rename in `src/` would otherwise surface only
when a traced benchmark run fails.  The table is loaded by path, so the
benchmark directory needs no package marker and is not edited.

The tracer patches the modules that `import hamca.cli` loads.  A module that
owns a target must load with it; a module that loads later, when its command
runs, must bind the functions the tracer has already wrapped.  The traced
commands below fail otherwise, as their spans then record no calls.
"""

import collections
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("hamca_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracing().TARGETS


@pytest.mark.parametrize("span, module, attribute", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves_to_a_callable(span, module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"{span}: {module}.{attribute} is not callable"


@pytest.mark.parametrize("span, module, attribute", [t for t in TARGETS if "." in t[2]],
                         ids=[t[0] for t in TARGETS if "." in t[2]])
def test_dotted_target_is_defined_on_its_own_class(span, module, attribute):
    """Tracer.install patches a method through its class's own __dict__."""
    cls_name, method = attribute.split(".")
    cls = getattr(importlib.import_module(module), cls_name)
    assert method in cls.__dict__, f"{span}: {cls_name}.{method} is inherited, not defined on the class"


def test_max_bits_reads_a_step_forward_result():
    from hamca.dynamics import step_forward
    from hamca.gaussian import GaussMatrix, GaussVector

    psi = step_forward(GaussVector.of(2**100, 0), GaussVector.zero(2), GaussMatrix.identity(2))
    assert _tracing().max_bits(psi) == 101


@pytest.mark.parametrize("argv, spans", [
    (["continuum", "sinh", "--model", "H2", "--windows", "8", "--steps", "40", "--points", "2"],
     ["continuum.evolve_float", "continuum.sinh_residual"]),
    (["run", "--model", "H2", "--psi0", "1,0", "--psi1", "1,1", "--steps", "20", "--probe"], ["conservation.q1"]),
], ids=["continuum-sinh", "run-probe"])
def test_traced_command_records_the_calls_of_lazily_loaded_code(tmp_path, argv, spans):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(TRACING), str(out), "guard", "--", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    document = json.loads(out.read_text())
    calls = collections.Counter(document["names"][span[0]] for span in document["spans"])
    assert [span for span in spans if calls[span] == 0] == []
