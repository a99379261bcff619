"""The benchmark tracer's targets all exist in cosymkit.

``perfbench/tracer.py`` wraps functions and methods by name, and a traced
benchmark run fails when one of them binds nowhere.  This test fails first,
so a rename inside the package is caught by the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolves(target) -> bool:
    """Whether the tracer would find ``target``: a module attribute, or a
    method defined on the class itself."""
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        return isinstance(owner, type) and callable(vars(owner).get(attr))
    return callable(getattr(module, attr, None))


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) > 30
    missing = [f"{t.module}.{t.path}" for t in tracer.TARGETS if not _resolves(t)]
    assert missing == []
