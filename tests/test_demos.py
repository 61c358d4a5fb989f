"""The demos print byte-identical output across versions."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 and byte length of each demo's stdout
DEMOS = [
    ("branching_and_pairing.py",
     "a543288e317837a1d3207059c9392889e442bde7f37b6d159c3c36e445453b0f", 5095),
    ("domain_wall.py",
     "a99529e799ba1933069e98ead6192c8be61260f319ca7fe14629c0d816d0cf6d", 1580),
    ("grothendieck_limit.py",
     "547c46893f6588ed544744f050014ba1d7d7062cd225e532597e8f0d28232fbc", 288),
    ("worked_example.py",
     "c0fb1efe0b173c6211ca42a4f70dd06e7eac9ad11088356123bf258fa856d837", 4465),
]


@pytest.mark.parametrize("name, sha256, size", DEMOS,
                         ids=[d[0] for d in DEMOS])
def test_demo_output_pinned(name, sha256, size):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120,
                          check=False)
    assert proc.returncode == 0 and proc.stderr == b""
    assert (hashlib.sha256(proc.stdout).hexdigest(),
            len(proc.stdout)) == (sha256, size)
