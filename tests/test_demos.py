"""Each demo prints exactly the text pinned in ``tests/golden/expected``, and
the README's quick start prints what its ``#`` comments say.

The demos run as a user runs them, in a fresh interpreter with ``src`` on
the path. Regenerate the expected text with
``PYTHONPATH=src python3 tests/test_demos.py`` and review the diff.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "golden" / "expected"


def expected_path(demo: Path) -> Path:
    return EXPECTED / f"demo_{demo.name[:2]}.txt"


def run_python(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout


def test_every_demo_is_pinned():
    assert DEMOS
    assert sorted(p.name for p in EXPECTED.glob("demo_*.txt")) == sorted(
        expected_path(d).name for d in DEMOS
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_byte_identical(demo):
    assert run_python(str(demo)) == expected_path(demo).read_bytes()


def test_readme_quick_start():
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    expected = re.findall(r"# (.*)$", code, re.M)
    assert expected
    assert run_python("-c", code).decode("utf-8").splitlines() == expected


if __name__ == "__main__":
    for demo in DEMOS:
        expected_path(demo).write_bytes(run_python(str(demo)))
        print(f"wrote {expected_path(demo)}", file=sys.stderr)
