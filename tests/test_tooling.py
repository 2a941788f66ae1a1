"""Guards for the benchmark harness that lives next to the package.

``perfbench/spans.py`` patches its probes into ``dirdense`` through
``owner.__dict__[attr]``, so a probed callable must be defined directly on
the module or class it is looked up on. A refactor that moves one into a
base class or renames it breaks traced benchmark runs without failing any
package test; this test makes that visible.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_probe_is_defined_on_its_owner():
    probes = _load_spans()._probes()
    assert probes
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in probes if attr not in owner.__dict__]
    assert not missing, f"probed callables not defined on their owner: {missing}"
