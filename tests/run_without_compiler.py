"""Run the tier-1 suite in the configuration without a C compiler.

Copies src and tests (and pyproject.toml, which holds pytest's settings)
into a temporary directory, leaving out every __pycache__, so that no
compiled kernel library is cached beside the package, then runs

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

there with this interpreter and a PATH that holds only an empty
directory, so that cc cannot be found and no library is built.  Prints
pytest's summary line and exits with pytest's exit code.  Extra
arguments go to pytest:

    python tests/run_without_compiler.py [pytest arguments]

pytest does not collect this file: its name does not start with test_.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (tmp / "no-compiler").mkdir()
        env = dict(os.environ, PATH=str(tmp / "no-compiler"), PYTHONPATH="src")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                              *argv], cwd=tmp, env=env, capture_output=True, text=True)
        lines = run.stdout.splitlines()
        failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
        print("\n".join(failed + lines[-1:]))
        built = list((tmp / "src" / "distlink" / "__pycache__").glob("_kernel.*.so"))
        print(f"kernel libraries built: {len(built)}")
        return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
