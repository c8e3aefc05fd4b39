"""The project's pytest settings keep a run going past a failing property
test: reporting a hypothesis failure must not turn into an internal error
under warnings-as-errors."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert done.returncode == 1
