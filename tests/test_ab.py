"""Self-tests of tools/ab.py, the paired A/B harness, on synthetic runs: no
benchmark is started."""

import importlib.util
import itertools
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "nodes_per_s", "better": "higher"}, {"name": "peak_rss_mb", "better": "lower"}]


def test_sign_test_is_the_exact_two_sided_binomial_tail():
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == 2 / 1024
    assert ab.sign_test(9, 1) == 2 * 11 / 1024
    assert ab.sign_test(5, 5) == ab.sign_test(0, 0) == 1.0
    # against the fair coin's outcomes counted one by one
    for n in range(1, 11):
        for wins in range(n + 1):
            extreme = min(wins, n - wins)
            count = sum(min(sum(o), n - sum(o)) <= extreme
                        for o in itertools.product((0, 1), repeat=n))
            assert math.isclose(ab.sign_test(wins, n - wins), min(1.0, count / 2 ** n))


def test_a_run_counts_only_with_a_correct_last_line_and_no_failure():
    good = {"correct": True, "attempted": 24, "failed": 0,
            "metrics": {"nodes_per_s": {"value": 1.0, "unit": "1/s"}}}
    printed = "metric nodes_per_s = 2 1/s\nmetric nodes_per_s_raw = 1.5e+04 1/s\nmetric ...\n"
    metrics, error = ab.read_result("workload x\n" + printed + json.dumps(good) + "\n")
    assert error is None and metrics == {"nodes_per_s": 1.0, "nodes_per_s_raw": 15000.0}
    for stdout, why in (
            ("", "no output"),
            ("pass 1\nTraceback (most recent call last):", "not JSON"),
            ("[1, 2]", "not a JSON object"),
            (json.dumps(dict(good, correct=False)), "not correct"),
            (json.dumps(dict(good, failed=1)), "not correct"),
            (json.dumps({"metrics": {}}), "not correct"),
            (json.dumps(good) + "\nFAILED: late line", "not JSON")):
        metrics, error = ab.read_result(stdout)
        assert metrics is None and why in error


def test_pairs_are_won_in_the_metrics_better_direction_and_ties_count_for_neither():
    base = [10.0, 10.0, 11.0, 9.0, 12.0]
    head = [12.0, 10.0, 10.0, 13.0, 14.0]
    higher = ab.compare(base, head, "higher")
    assert higher["pairs_won"] == {"head": 3, "base": 1, "ties": 1}
    assert higher["sign_test_p"] == ab.sign_test(3, 1)
    lower = ab.compare(base, head, "lower")
    assert lower["pairs_won"] == {"head": 1, "base": 3, "ties": 1}
    assert higher["base"]["median"] == 10.0 and higher["head"]["median"] == 12.0
    assert (higher["base"]["q1"], higher["base"]["q3"]) == (10.0, 11.0)
    assert higher["head_over_base"] == 1.2
    assert higher["base_iqr"] == 1.0 and higher["gap_exceeds_base_iqr"]
    assert not ab.compare([1.0, 2.0, 3.0], [2.5, 1.5, 3.5], "higher")["gap_exceeds_base_iqr"]


def test_a_pair_with_a_run_that_does_not_count_is_left_out():
    got = ab.compare([1.0, None, 3.0, 5.0], [2.0, 100.0, None, 6.0], "higher")
    assert got["pairs_counted"] == 2
    assert got["pairs_won"] == {"head": 2, "base": 0, "ties": 0}
    assert got["base"]["median"] == 3.0 and got["head"]["median"] == 4.0
    assert got["base"]["runs"] == [1.0, None, 3.0, 5.0]
    assert ab.compare([None], [1.0], "lower") == {"better": "lower", "pairs_counted": 0}


def test_quartiles_interpolate_between_closest_ranks():
    assert ab.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert ab.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def _synthetic_run_one(fail):
    """run_one's stand-in: the head is 10% faster, one run fails."""
    calls = []

    def run_one(tree, workload, seconds, seed):
        side, pair = tree.name, sum(c[1] == workload and c[0] == tree.name for c in calls)
        calls.append((side, workload, seconds, seed))
        if (pair, workload, side) == fail:
            return {"correct": False, "error": "not correct: correct=False, failed=1",
                    "metrics": None}
        rate = (1100.0 if side == "head" else 1000.0) + pair
        return {"correct": True, "error": None,
                "metrics": {"setup_s": 0.1, "nodes_per_s": rate, "nodes_per_s_raw": 2 * rate,
                            "peak_rss_mb": 40.0 + (side == "head")}}
    return run_one, calls


def test_sides_alternate_first_and_workloads_take_turns(monkeypatch, capsys, tmp_path):
    run_one, calls = _synthetic_run_one(fail=(2, "wide-deep", "base"))
    monkeypatch.setattr(ab, "run_one", run_one)
    trees = {side: tmp_path / side for side in ab.SIDES}
    runs = ab.run_pairs(trees, ["narrow-deep", "wide-deep"], 4, 2.0, 8)
    assert [(c[0], c[1]) for c in calls[:8]] == [
        ("base", "narrow-deep"), ("head", "narrow-deep"), ("base", "wide-deep"),
        ("head", "wide-deep"), ("head", "narrow-deep"), ("base", "narrow-deep"),
        ("head", "wide-deep"), ("base", "wide-deep")]
    assert all(c[2:] == (2.0, 8) for c in calls) and len(runs) == 16
    assert "FAILED pair 3/4 wide-deep base: not correct" in capsys.readouterr().err
    rep = ab.report(runs, METRICS, ["narrow-deep", "wide-deep"], 4)
    assert rep["narrow-deep"]["first_in_pair"] == ["base", "head", "base", "head"]
    assert rep["narrow-deep"]["counted"] == {"base": 4, "head": 4}
    assert rep["wide-deep"]["counted"] == {"base": 3, "head": 4}
    speed = rep["wide-deep"]["metrics"]["nodes_per_s"]
    assert speed["pairs_counted"] == 3 and speed["pairs_won"]["head"] == 3
    assert speed["base"]["runs"][2] is None and speed["head"]["runs"][2] == 1102.0
    rss = rep["narrow-deep"]["metrics"]["peak_rss_mb"]
    assert rss["pairs_won"] == {"head": 0, "base": 4, "ties": 0}
    # an uncalibrated twin is compared where the runs print one
    assert sorted(rep["wide-deep"]["metrics"]) == ["nodes_per_s", "nodes_per_s_raw",
                                                  "peak_rss_mb"]
    raw = rep["wide-deep"]["metrics"]["nodes_per_s_raw"]
    assert raw["better"] == "higher" and raw["head"]["runs"][2] == 2204.0


def test_main_writes_every_run_and_fails_on_a_run_that_does_not_count(monkeypatch, tmp_path):
    run_one, _ = _synthetic_run_one(fail=(0, "narrow-deep", "head"))
    monkeypatch.setattr(ab, "run_one", run_one)
    monkeypatch.setattr(ab, "resolve", lambda rev: "sha-of-" + rev)
    built = []
    monkeypatch.setattr(ab, "build_side", lambda dest, rev: built.append(rev) or dest.mkdir())
    out = tmp_path / "ab.json"
    rc = ab.main(["--base", "HEAD~1", "--pairs", "2", "--workloads", "narrow-deep",
                  "--out", str(out)])
    assert rc == 1 and built == ["sha-of-HEAD~1", None]
    got = json.loads(out.read_text())
    assert got["base"] == {"rev": "HEAD~1", "sha": "sha-of-HEAD~1"}
    assert got["head"]["rev"] == "working tree"
    assert got["failures"] == [{"pair": 0, "workload": "narrow-deep", "side": "head",
                                "error": "not correct: correct=False, failed=1"}]
    assert len(got["runs"]) == 4
    assert got["workloads"]["narrow-deep"]["metrics"]["nodes_per_s"]["pairs_counted"] == 1
    with pytest.raises(SystemExit):
        ab.main(["--base", "HEAD", "--pairs", "0", "--out", str(out)])
    assert ab.main(["--base", "HEAD", "--workloads", "no-such", "--out", str(out)]) == 2
    monkeypatch.undo()
    assert ab.main(["--base", "no-such-revision", "--out", str(out)]) == 2
