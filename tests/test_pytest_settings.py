"""The repository's pytest settings report every test, failing property tests included."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SESSION = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_after_the_property():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """A falsified ``@given`` test is reported as a failure, and the next test still runs.

    ``filterwarnings = ["error"]`` turns every warning into an error, also
    one that a plugin's report hook raises while it reports the falsifying
    example; pytest then stops with INTERNALERROR.
    """
    (tmp_path / "test_session.py").write_text(SESSION, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
