"""What a measurement ran on: interpreter, package versions, host, commit.

``repro doctor`` prints the versions; bench baseline files embed the
whole :func:`bench_environment` block, so a row can be compared with a
row measured elsewhere knowing what differed.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def package_versions(packages) -> dict:
    """The Python version, then each package's version (None if absent)."""
    versions = {"python": platform.python_version()}
    for package in packages:
        try:
            module = __import__(package)
            versions[package] = getattr(module, "__version__", "unknown")
        except Exception:
            versions[package] = None
    return versions


def git_commit() -> "str | None":
    """The commit of the checkout this package runs from.

    ``<commit>-dirty`` when tracked files differ from that commit, so a
    measurement taken on uncommitted changes does not name a commit that
    lacks them.  None when the package is not inside a git checkout or
    git is not installed.
    """
    def git(*args) -> str:
        return subprocess.run(
            ["git", *args], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return None
    if not commit:
        return None
    return commit + ("-dirty" if dirty else "")


def bench_environment() -> dict:
    """Versions, CPU count and commit, as stored in bench baseline files."""
    environment = package_versions(("numpy", "scipy"))
    environment["cpu_count"] = os.cpu_count()
    environment["git_commit"] = git_commit()
    return environment
