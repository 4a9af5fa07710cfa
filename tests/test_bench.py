"""The traced benchmark run (`bench/trace_child.py`) wraps package
functions by name, so renaming or deleting one of them breaks it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_child_install_finds_every_wrapped_function():
    # a fresh interpreter keeps the patched modules out of this session
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "from trace_child import Tracer, install\n"
        "install(Tracer())\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
