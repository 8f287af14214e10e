"""End-to-end benchmark of the repro engine: five workloads, seven
end-to-end metrics and a per-layer table (see ``e2ebench/README.md``).

Run ``python -m e2ebench --workload NAME --seed S`` from the repository
root.  The package is not installed anywhere: it measures the ``src/``
tree of the checkout it sits in, so that tree is put first on
``sys.path`` here, before any sibling module imports ``repro``.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


class ProgramMissing(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def require_program() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises :class:`ProgramMissing` when ``src/repro`` is absent, so a
    directory holding only the benchmark fails loudly instead of
    measuring some other installed copy.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise ProgramMissing(f"no program to measure: {SRC_DIR}/repro is missing")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
