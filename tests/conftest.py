import json
import os
import sys
from pathlib import Path

import pytest

from intervalagg import Interval, Profile

ROOT = Path(__file__).resolve().parents[1]
EXTERN_DIR = Path(__file__).parent / "extern_rules"

BENCHMARK_PROFILE = Profile((Interval(2, 4), Interval(3, 6), Interval(1, 5)))
INTERLEAVED_PROFILE = Profile((Interval(1, 6), Interval(2, 3), Interval(4, 5)))


def extern_command(script_name: str) -> str:
    """Command string launching one of the fixture rule scripts."""
    return f"{sys.executable} {EXTERN_DIR / script_name}"


def src_env() -> dict:
    """Environment for a child Python process that imports the package
    from this checkout's ``src/``, whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture
def write_profile(tmp_path):
    """Write a profile document to a temp file and return its path."""

    def _write(profile, name="profile.json", labels=None):
        agents = [{"lo": iv.lo, "hi": iv.hi} for iv in profile]
        document = {"agents": agents}
        if labels is not None:
            document["labels"] = list(labels)
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return path

    return _write
