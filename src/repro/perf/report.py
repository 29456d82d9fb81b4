"""The git commit a measurement was taken at.

``perfbench/run.py`` stamps it into every benchmark run and
``store/service.py`` into store provenance, so numbers and circuits
from different commits stay attributable.
"""

from __future__ import annotations

import os
import subprocess

__all__ = ["git_info"]


def _git(args: list[str], cwd: str | None) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def git_info(cwd: str | None = None) -> dict:
    """Describe the git commit a report was produced from.

    ``sha`` and ``dirty`` are ``None`` outside a repository (or without
    a ``git`` binary) — reports stay valid, they just lose cross-commit
    attribution.  ``RMRLS_GIT_SHA`` overrides the lookup for containers
    that vendor the source without ``.git``.
    """
    override = os.environ.get("RMRLS_GIT_SHA")
    if override:
        return {"sha": override, "dirty": None}
    sha = _git(["rev-parse", "HEAD"], cwd)
    if sha is None:
        return {"sha": None, "dirty": None}
    status = _git(["status", "--porcelain"], cwd)
    return {"sha": sha, "dirty": None if status is None else bool(status)}
