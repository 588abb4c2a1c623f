#!/usr/bin/env python3
"""Self-test for bench_trend.py's exit-code contract.

Runs as a plain script (``python3 scripts/test_bench_trend.py``, no pytest
required) but each case is a ``test_*`` function, so a pytest runner picks
them up individually too. CI invokes this right before the real trend diff:
a wrong exit code here would silently turn bench-step failures into
"regressions" (or worse, into passes).
"""

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_trend  # noqa: E402


ROWS = [
    {"bench": "warm_sweep/sweep_ns", "median_ns": 100.0, "quick": True},
    {"bench": "warm_sweep/discovery_call_ratio_x", "median_ns": 16.0, "quick": True},
]


def _run(prev, cur, threshold=None):
    """Materializes artifacts and returns bench_trend.main's exit code.

    ``prev``/``cur`` may be a list (JSON-encoded), a raw string (written
    verbatim — empty or invalid JSON), or None (file never created).
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, content in (("prev.json", prev), ("cur.json", cur)):
            path = os.path.join(tmp, name)
            paths.append(path)
            if content is None:
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(content if isinstance(content, str) else json.dumps(content))
        argv = ["bench_trend.py", *paths]
        if threshold is not None:
            argv.append(str(threshold))
        return bench_trend.main(argv)


def test_matching_artifacts_pass():
    assert _run(ROWS, ROWS) == 0


def test_missing_previous_starts_baseline():
    assert _run(None, ROWS) == 0


def test_empty_previous_starts_baseline():
    assert _run("", ROWS) == 0


def test_invalid_previous_starts_baseline():
    assert _run("{not json", ROWS) == 0


def test_regression_fails():
    cur = [{"bench": "warm_sweep/sweep_ns", "median_ns": 300.0, "quick": True}]
    assert _run(ROWS, cur) == 1


def test_within_threshold_passes():
    cur = [{"bench": "warm_sweep/sweep_ns", "median_ns": 150.0, "quick": True}]
    assert _run(ROWS, cur) == 0


def test_rows_gone_from_current_are_reported_and_pass():
    # Retiring a bench row (a deleted baseline, say) is not a regression:
    # the label prints as gone and the diff still exits 0.
    prev = ROWS + [{"bench": "warm_sweep/deep_snapshot_ns", "median_ns": 6e8, "quick": True}]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _run(prev, ROWS)
    assert code == 0
    assert "gone  warm_sweep/deep_snapshot_ns [quick]" in out.getvalue(), out.getvalue()


def test_missing_current_is_usage_error():
    assert _run(ROWS, None) == 2


def test_empty_current_is_usage_error():
    assert _run(ROWS, "") == 2


def test_invalid_current_is_usage_error():
    assert _run(ROWS, "[{]") == 2


def test_non_array_current_is_usage_error():
    assert _run(ROWS, {"bench": "x"}) == 2


def test_ratio_labels_are_skipped():
    # A collapsed ratio row must not trip the gate: _x labels are asserted
    # in-bench and ignored here.
    cur = [
        {"bench": "warm_sweep/sweep_ns", "median_ns": 100.0, "quick": True},
        {"bench": "warm_sweep/discovery_call_ratio_x", "median_ns": 1.0, "quick": True},
    ]
    assert _run(ROWS, cur) == 0


def test_factor_labels_are_skipped():
    # Structural-count rows (states per orbit representative, etc.) have no
    # time axis; a change is a protocol change, asserted in-bench, and must
    # not read as a wall-clock regression.
    prev = ROWS + [{"bench": "discovery/orbit_factor", "median_ns": 30.0, "quick": True}]
    cur = ROWS + [{"bench": "discovery/orbit_factor", "median_ns": 1.0, "quick": True}]
    assert _run(prev, cur) == 0


def test_missing_args_is_usage_error():
    assert bench_trend.main(["bench_trend.py"]) == 2


def main():
    tests = sorted(
        (name, fn)
        for name, fn in globals().items()
        if name.startswith("test_") and callable(fn)
    )
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failures}/{len(tests)} bench_trend self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
