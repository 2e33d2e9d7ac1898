"""Importing the CLI loads neither dataclasses nor inspect.

Every command-line run and every benchmark set-up imports zhedkit afresh, so
each module it pulls in is paid for on every run.  The check runs in a fresh
interpreter, because this test process has imported both modules already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import zhedkit.cli, sys; "
            "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
