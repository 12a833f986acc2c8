"""Frozen search records: every heuristic's search on a seeded suite must
retrace the recorded one exactly.

A record holds, per (instance, heuristic) run, the verdict, the branch,
split and gap-clamp counts, and the (action, split) sequence of the
per-node trace. Nothing in it is a float, so refactors of the bounding or
scoring arithmetic that are meant to keep the search unchanged are checked
without tolerances. The suites have 8 inputs, enough for numpy's unrolled
pairwise summation to take part in concretization. search_record.json
holds the searches whose steps take one sub-domain each (bab.lookahead
forced to 1), search_record_batched.json those at the default step width;
they differ only in Unsafe and budget-capped runs, and in the order of a
Safe run's nodes.

Regenerate both (only when a change is meant to alter the search) with
`PYTHONPATH=src python tests/test_search_record.py`.
"""

import json
import sys
import tempfile
from pathlib import Path

from reluverify import bab, cli, heuristics, model

RECORD = Path(__file__).parent / "data" / "search_record.json"
BATCHED_RECORD = Path(__file__).parent / "data" / "search_record_batched.json"
# The second suite's narrow layers run out of unstable neurons, so its
# searches also bisect the input box.
SUITES = (
    ["gen", "--seed", "5", "--layers", "2", "--widths", "12", "--count", "8",
     "--eps", "0.3", "--inputs", "8", "--outputs", "3"],
    ["gen", "--seed", "6", "--layers", "2", "--widths", "4", "--count", "6",
     "--eps", "0.4", "--inputs", "8", "--outputs", "3"],
)
MAX_BRANCHES = 300


def collect(one_per_step: bool) -> dict:
    lookahead = bab.lookahead
    if one_per_step:
        bab.lookahead = lambda net, rows: 1
    try:
        return _collect()
    finally:
        bab.lookahead = lookahead


def _collect() -> dict:
    config = bab.BabConfig(timeout_seconds=600.0, max_branches=MAX_BRANCHES, trace=True)
    runs = {}
    for i, gen_args in enumerate(SUITES):
        with tempfile.TemporaryDirectory() as tmp:
            assert cli.main(gen_args + ["--out", tmp]) == 0
            for name, model_path, spec_path in cli.discover_suite(tmp):
                task = model.load_task(model_path, spec_path)
                for kind in heuristics.KINDS:
                    stats = bab.verify(task, kind, config)
                    runs[f"suite{i}/{name}/{kind}"] = {
                        "verdict": stats.verdict,
                        "branches_visited": stats.branches_visited,
                        "splits_made": stats.splits_made,
                        "gap_clamp_events": stats.gap_clamp_events,
                        "trace": [[e["action"], e.get("split")] for e in stats.per_node_trace],
                    }
    return {"suites": [list(a) for a in SUITES], "max_branches": MAX_BRANCHES, "runs": runs}


def _check(record: Path, one_per_step: bool) -> None:
    expected = json.loads(record.read_text(encoding="utf-8"))
    actual = collect(one_per_step)
    assert actual["suites"] == expected["suites"]
    assert sorted(actual["runs"]) == sorted(expected["runs"])
    for key, want in expected["runs"].items():
        assert actual["runs"][key] == want, key


def test_search_matches_frozen_record():
    _check(RECORD, one_per_step=True)


def test_batched_search_matches_frozen_record():
    _check(BATCHED_RECORD, one_per_step=False)


def write(record: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(f'"suites": {json.dumps(record["suites"])},\n')
        fh.write(f'"max_branches": {record["max_branches"]},\n')
        fh.write('"runs": {\n')
        lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in sorted(record["runs"].items())]
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    print(f"wrote {len(record['runs'])} runs to {path}", file=sys.stderr)


if __name__ == "__main__":
    write(collect(one_per_step=True), RECORD)
    write(collect(one_per_step=False), BATCHED_RECORD)
