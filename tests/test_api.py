import os
import subprocess
import sys
import types
from pathlib import Path

import surfgrow


def test_all_lists_exactly_the_imported_names():
    # each entry resolves, none is a submodule, none is listed twice
    public = {name for name, obj in vars(surfgrow).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(surfgrow.__all__) == sorted(public)


def test_import_loads_no_scipy():
    # the package's import cost (and its only dependency) is numpy
    code = "import sys, surfgrow; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(surfgrow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
