"""Golden-byte checks: certified outputs of the seeded corpus never change.

The stored files were written by `tests/golden_corpus.py`; see its docstring
for what the corpus covers and how to regenerate it.
"""
import json

import golden_corpus as gc


def _check(rows, path):
    stored = path.read_text(encoding="utf-8")
    old = json.loads(stored)
    assert len(rows) == len(old)
    for new_row, old_row in zip(json.loads(gc.dump(rows)), old):
        assert new_row == old_row
    assert gc.dump(rows) == stored


def test_rotation_reports_match_golden():
    _check(gc.rotation_golden(), gc.ROTATION_PATH)


def test_cli_outputs_match_golden():
    _check(gc.cli_golden(), gc.CLI_PATH)


def test_semiconj_outputs_match_golden():
    _check(gc.semiconj_golden(), gc.SEMICONJ_PATH)


def test_density_outputs_match_golden():
    rows = gc.density_golden()
    _check(rows, gc.DENSITY_PATH)
    # the gaps are exact, so the sample count changes no byte
    by_job = {}
    for row in rows:
        fmt = row["args"][row["args"].index("--format") + 1]
        by_job.setdefault((row["id"], fmt), set()).add(row["stdout"])
    assert len(by_job) == len(rows) // len(gc.DENSITY_SAMPLES)
    assert all(len(outs) == 1 for outs in by_job.values())


def test_orbit_verdicts_match_golden():
    _check(gc.orbit_golden(), gc.ORBIT_PATH)


def test_read_path_outputs_match_golden():
    _check(gc.read_path_golden(), gc.READ_PATH_PATH)
