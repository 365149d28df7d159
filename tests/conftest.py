import os
from pathlib import Path

from hypothesis import settings

# eigensolves inside property bodies can exceed the default 200 ms deadline
# on loaded CI machines; determinism matters here, wall time does not.
settings.register_profile("mcfqc", deadline=None)
settings.load_profile("mcfqc")

# pyproject's pythonpath reaches this process only; the CLI tests start
# `python -m mcfqc` children, which need the source tree as well.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
