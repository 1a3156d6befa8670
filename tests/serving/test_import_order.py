"""``repro.serving`` and the serving names ``repro.api`` re-exports
import cleanly on their own, in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.serving",
        "from repro.api import PipelineServer, PendingResult, ServerStats",
    ],
)
def test_fresh_interpreter_import(statement):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", statement],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
