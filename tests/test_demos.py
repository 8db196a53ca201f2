import re
import subprocess
import sys

import pytest

from .conftest import ROOT, src_env

DEMO_DIR = ROOT / "demos"


@pytest.mark.parametrize(
    "script", sorted(path.name for path in DEMO_DIR.glob("*.py"))
)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMO_DIR / script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, in order, in one namespace,
    so the README cannot import or call a name the package dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
