"""The benchmark's imports from mcfqc resolve.

The benchmark's own tests are not collected with this suite, so removing a
public name the benchmark still imports would pass here and break the
benchmark. This parses the benchmark's sources without importing them.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def mcfqc_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each `from mcfqc... import name`, (module, None) for `import mcfqc...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mcfqc":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "mcfqc"]
    return found


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_imports_resolve(path):
    for module, name in mcfqc_imports(path):
        if name is None:
            importlib.import_module(module)
        else:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_workloads_import_the_program():
    assert len(mcfqc_imports(BENCH / "workloads.py")) >= 10
