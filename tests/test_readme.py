import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    """The README's python block runs against the source tree and labels its one detection."""
    [example] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Pedestrian ")
    assert lines[1].startswith("LabelingDiagnostics(") and "n_emitted=1" in lines[1]
