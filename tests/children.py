"""The environment of the child interpreters that tests start.

A child gets only what it needs: the library on its path, from `src`,
and no bytecode written there, so a test run leaves the source tree as
it found it.
"""

from __future__ import annotations

from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(**extra: str) -> dict[str, str]:
    """`PYTHONPATH` set to `src`, `PYTHONDONTWRITEBYTECODE` on, and `extra`."""
    return {"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1", **extra}
