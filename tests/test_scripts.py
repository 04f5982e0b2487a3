"""Golden-byte check of the example scripts: stdout and written files.

Each script runs in a subprocess with a fresh working directory; the stored
outputs were written by `tests/golden_corpus.py`.
"""
import golden_corpus as gc
from test_golden import _check


def test_script_outputs_match_golden():
    _check(gc.script_golden(), gc.SCRIPTS_PATH)
