"""The byte pins of ``pins.py``, one case per table entry."""

import os
import subprocess
import sys

import pytest

import pins
from helpers import SRC


@pytest.mark.parametrize("name, build, expected", pins.PINS, ids=[pin[0] for pin in pins.PINS])
def test_pinned_bytes(name, build, expected):
    assert pins.mismatch(build, expected) is None


def test_pins_need_only_the_standard_library():
    # -S leaves site-packages off sys.path, so a third-party import fails
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", "import pins"], env=env,
                          cwd=os.path.dirname(pins.__file__), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
