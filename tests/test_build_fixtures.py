"""The committed fixtures and bundled data are what the build script writes."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tools", "tests/fixtures")


def tree(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def test_build_fixtures_reproduces_committed_files(tmp_path):
    for part in COPIED:
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, str(tmp_path / "tools" / "build_fixtures.py")],
                   cwd=tmp_path, capture_output=True, check=True)
    for part in COPIED:
        rebuilt, committed = tree(tmp_path / part), tree(ROOT / part)
        assert rebuilt.keys() == committed.keys(), part
        changed = [name for name in rebuilt if rebuilt[name] != committed[name]]
        assert not changed, f"{part}: rebuilt files differ: {changed}"
