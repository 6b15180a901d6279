import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    # the demos import the tree's own package, not an installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr[-2000:])
