import os
import subprocess
import sys

import ddepoly


def test_star_import_resolves_every_exported_name():
    ns = {}
    exec("from ddepoly import *", ns)
    assert len(set(ddepoly.__all__)) == len(ddepoly.__all__)
    for name in ddepoly.__all__:
        assert ns[name] is getattr(ddepoly, name)


def test_import_loads_no_numpy():
    code = "import sys, ddepoly; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
