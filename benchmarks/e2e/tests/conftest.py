"""Tests of the e2e benchmark's own code (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``
(``benchmarks/conftest.py`` one level up imports ``repro``).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(E2E))

import record  # noqa: E402

record.pin_threads()
sys.path.insert(0, str(record.ROOT / "src"))
