"""The demos run to completion as scripts against the package under test and
print their golden stdout (tests/golden/demo-<name>.txt), and the README's
library example prints what its comments say."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"demo-{Path(demo).stem}.txt").read_text()


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    # each print's comment gives its output, before any " - " remark
    expected = [line.split("#", 1)[1].split(" - ")[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["(1, 8, 1)", "(1, '(T)')"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected
