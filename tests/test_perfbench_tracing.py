"""The benchmark's tracer against the package: every name it wraps must
still exist, so a renamed method fails here and not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    # checked first: install would stop half way, leaving wrappers behind
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._targets(tracer)
               if attr not in vars(owner)]
    assert missing == []
    saved = tracing.install(tracer)
    try:
        assert saved
        assert tracing.patched_names()
    finally:
        tracing.uninstall(saved)
    assert tracing.patched_names() == []
