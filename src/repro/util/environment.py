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

    None when the package is not inside a git checkout or git is not
    installed.
    """
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def bench_environment() -> dict:
    """Versions, CPU count and commit, as stored in bench baseline files."""
    environment = package_versions(("numpy", "scipy"))
    environment["cpu_count"] = os.cpu_count()
    environment["git_commit"] = git_commit()
    return environment
