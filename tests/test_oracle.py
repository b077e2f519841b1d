"""The independent flat rewriter (tools/oracle.py) must run clean.

It imports nothing from diffalg, so it runs in its own interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_reports_no_failures():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "oracle.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "86 checks, 0 failures" in proc.stdout
