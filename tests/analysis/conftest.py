"""Shared fixtures for the analyzer suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.project import Project

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def live_project() -> Project:
    """One build of the live ``src/repro`` tree, shared by every
    analysis of the unmutated tree (a build parses every module)."""
    return Project.from_paths([REPO_ROOT / "src" / "repro"])
