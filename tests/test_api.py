import subprocess
import sys

import pairedcrt
from helpers import package_env


def test_public_names_resolve():
    for name in pairedcrt.__all__:
        assert getattr(pairedcrt, name) is not None


def test_version_string():
    parts = pairedcrt.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_runtime_imports_only_numpy():
    # the package and its command line run with numpy alone; test-only
    # libraries must not leak into the runtime import graph
    probe = (
        "import sys, pairedcrt, pairedcrt.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & "
        "{'hypothesis', 'pytest', 'scipy', 'networkx'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
