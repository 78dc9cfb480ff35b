import shutil
import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # under filterwarnings = error, a failing @given test must print its
    # counterexample and let the tests after it run
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n",
                                         encoding="utf-8")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY,
                                               encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-p",
                           "no:cacheprovider", str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert "Falsifying example" in proc.stdout, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
