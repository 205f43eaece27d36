import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The runtime needs numpy alone (pyproject.toml), so a demo must run where
# scipy is absent.  Python imports sitecustomize from the path at startup;
# this one puts a finder first on sys.meta_path that refuses scipy.
_NO_SCIPY = '''\
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, _NoScipy())
'''


def test_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(_NO_SCIPY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tmp_path), str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -W error: the warning filter of pyproject.toml stops at the subprocess
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
