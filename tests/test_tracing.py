"""The benchmark's layer hooks name entry points that exist.

`bench/tracing.py` wraps each `(module, qualified name)` in its `LAYERS`
table and, for one that no longer resolves, reads its per-layer metrics as
0 without failing. A rename in `specsyn` must fail here instead.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    # run the file's source rather than import it, which would write bytecode under bench/
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["LAYERS"]


LAYERS = load_layers()


def test_table_is_not_empty():
    assert len(LAYERS) > 20


@pytest.mark.parametrize("span,module,qualname", [row[:3] for row in LAYERS],
                         ids=[f"{row[1]}:{row[2]}" for row in LAYERS])
def test_entry_point_resolves(span, module, qualname):
    assert module.split(".")[0] == "specsyn", span
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part, None)
        assert target is not None, f"{span}: {module}.{qualname} does not exist"
    assert callable(target), f"{span}: {module}.{qualname} is not callable"
