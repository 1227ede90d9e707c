"""numpy is the only runtime dependency: importing the package and its
CLI loads no third-party module that importing numpy alone does not."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement: str) -> set[str]:
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout))


def test_package_imports_only_numpy_and_the_standard_library():
    extra = _modules_after("import homothetics, homothetics.cli") - _modules_after("import numpy")
    foreign = {
        name
        for name in extra
        if name.split(".")[0] not in sys.stdlib_module_names | {"homothetics"}
    }
    assert not foreign, sorted(foreign)
