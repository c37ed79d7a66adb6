"""Golden outputs: every table experiment reproduces the files in tests/golden/.

The run set lives in tests/golden/regenerate.py, which rewrites the files
when values move on purpose. Text and integer fields must match exactly and
floats to REL_TOL relative, with ABS_TOL as the floor for values near 0
(gaps of a near-optimal set). The tolerance is there because OpenBLAS picks
its kernels per CPU, so another machine may differ in the last bits; on one
machine the regeneration script leaves `git diff --exit-code tests/golden`
clean. Budget 10 s for the whole set; about 2 s on a 2-core host.
"""

import json
import math
import time

import pytest

from golden.regenerate import GOLDEN, RUNS, run, write_inputs

REL_TOL, ABS_TOL = 1e-9, 1e-12


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _same_field(a: str, b: str) -> bool:
    if a == b:
        return True
    if _is_int(a) or _is_int(b):
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _same_json(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _mismatches(name: str, got: str, want: str) -> list[str]:
    """Lines of file `name` that differ beyond the tolerance, as 'name:line'."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{name}: {len(got_lines)} lines, golden has {len(want_lines)}"]
    if name.endswith(".jsonl"):
        same = [_same_json(json.loads(g), json.loads(w)) for g, w in zip(got_lines, want_lines)]
    else:
        same = [len(g.split(",")) == len(w.split(","))
                and all(map(_same_field, g.split(","), w.split(",")))
                for g, w in zip(got_lines, want_lines)]
    return [f"{name}:{i + 1}" for i, ok in enumerate(same) if not ok]


def test_table_experiments_match_their_golden_outputs(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    bad = []
    for name in RUNS:
        returned, files = run(name, tmp_path)
        golden = GOLDEN / name
        assert returned == (golden / "paths.txt").read_text().split(), name
        assert sorted(files) == sorted(p.name for p in golden.iterdir() if p.name != "paths.txt")
        for file_name, text in files.items():
            bad += _mismatches(f"{name}/{file_name}", text, (golden / file_name).read_text())
    elapsed = time.perf_counter() - t0
    print(f"\n[golden] {len(RUNS)} runs ({elapsed:.1f}s / budget 10s)")
    assert bad == [], f"differ from tests/golden beyond rel {REL_TOL}: {bad}"
    assert elapsed < 10, f"overran its 10 s budget: {elapsed:.1f}s"


@pytest.mark.parametrize("got, want, same", [
    ("0.1", "0.1", True),
    ("0.30000000000000004", "0.3", True),  # within REL_TOL
    ("0.3001", "0.3", False),
    ("1e-13", "-1e-13", True),  # within ABS_TOL of each other
    ("3", "3.0", False),  # an integer field stays an integer
    ("sampling", "aggregation", False),
    ("", "0.5", False),
])
def test_field_comparison(got, want, same):
    assert _same_field(got, want) is same


def test_record_comparison():
    want = {"n": 200, "gaps": [0.3, 1e-13], "mode": "aggregation"}
    assert _same_json({"n": 200, "gaps": [0.30000000000000004, -1e-13], "mode": "aggregation"},
                      want)
    assert not _same_json({"n": 200.0, "gaps": [0.3, 1e-13], "mode": "aggregation"}, want)
    assert not _same_json({"n": 200, "gaps": [0.3], "mode": "aggregation"}, want)
    assert not _same_json({"n": 200, "gaps": [0.3, 1e-13]}, want)
