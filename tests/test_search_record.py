"""Frozen search record: every heuristic's search on a seeded suite must retrace
the recorded one exactly.

The record holds, per (instance, heuristic) run, the verdict, the branch,
split and gap-clamp counts, and the (action, split) sequence of the
per-node trace. Nothing in it is a float, so refactors of the bounding or
scoring arithmetic that are meant to keep the search unchanged are checked
without tolerances. The suites have 8 inputs, enough for numpy's unrolled
pairwise summation to take part in concretization.

Regenerate (only when a change is meant to alter the search) with
`PYTHONPATH=src python tests/test_search_record.py`.
"""

import json
import sys
import tempfile
from pathlib import Path

from reluverify import bab, cli, heuristics, model

RECORD = Path(__file__).parent / "data" / "search_record.json"
# The second suite's narrow layers run out of unstable neurons, so its
# searches also bisect the input box.
SUITES = (
    ["gen", "--seed", "5", "--layers", "2", "--widths", "12", "--count", "8",
     "--eps", "0.3", "--inputs", "8", "--outputs", "3"],
    ["gen", "--seed", "6", "--layers", "2", "--widths", "4", "--count", "6",
     "--eps", "0.4", "--inputs", "8", "--outputs", "3"],
)
MAX_BRANCHES = 300


def collect() -> dict:
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


def test_search_matches_frozen_record():
    expected = json.loads(RECORD.read_text(encoding="utf-8"))
    actual = collect()
    assert actual["suites"] == expected["suites"]
    assert sorted(actual["runs"]) == sorted(expected["runs"])
    for key, want in expected["runs"].items():
        assert actual["runs"][key] == want, key


if __name__ == "__main__":
    record = collect()
    with open(RECORD, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(f'"suites": {json.dumps(record["suites"])},\n')
        fh.write(f'"max_branches": {record["max_branches"]},\n')
        fh.write('"runs": {\n')
        lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in sorted(record["runs"].items())]
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    print(f"wrote {len(record['runs'])} runs to {RECORD}", file=sys.stderr)
