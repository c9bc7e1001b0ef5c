"""The benchmark tracer's targets exist in the package.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of its ``TARGETS``
by a timing wrapper, and ``Tracer.active()`` raises KeyError on one the owner
does not define, so a rename in ``src/capnet`` would otherwise break
``perfbench/run.py --trace 1`` without any test failing.  The test loads the
tracer and changes nothing in it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_defined_by_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{name}: {owner.__name__}.{attr}" for name, owner, attr in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing, "tracer targets missing: " + ", ".join(missing)
