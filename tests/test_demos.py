"""The six demos print the same stdout as recorded in data/demos_golden.json.

The demos are deterministic, so any change in what they print is a
change in a result.  Rewrite the recording only when an output is meant
to change, with

    PYTHONPATH=src python tests/test_demos.py
"""
import contextlib
import io
import json
import os
import runpy

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(os.path.dirname(HERE), "demos")
GOLDEN = os.path.join(HERE, "data", "demos_golden.json")
NAMES = sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))


def _stdout(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_recording_covers_every_demo(golden):
    assert len(NAMES) == 6
    assert sorted(golden) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_stdout(name, golden):
    assert _stdout(name) == golden[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: _stdout(name) for name in NAMES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
