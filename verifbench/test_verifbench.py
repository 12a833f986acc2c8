"""Self-tests of the benchmark's own code on synthetic inputs.

Run with: python3 -m pytest verifbench/test_verifbench.py -q
"""

import json
import sys

import pytest

import checks
import stats
from tracer import Tracer


def _run(branches, verdict="Unknown", instance="case_000", heuristic="drg"):
    return stats.Run(instance, heuristic, verdict, branches, 0.0)


def test_percentile_interpolates_between_ranks():
    assert stats.percentile(list(range(1, 12)), 50) == 6
    assert stats.percentile(list(range(101)), 90) == pytest.approx(90.0)
    assert stats.percentile([0.0, 10.0], 25) == pytest.approx(2.5)
    assert stats.percentile([3.0, 1.0, 2.0], 100) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_percentile_needs_ten_samples_beyond():
    assert stats.reportable(100, 90)
    assert not stats.reportable(99, 90)
    assert not stats.reportable(24, 90)
    assert stats.reportable(20, 50)
    assert not stats.reportable(19, 50)
    assert stats.reportable(1000, 99)


def test_nodes_count_the_root():
    assert stats.count_nodes([_run(0), _run(5), _run(3000)]) == 3008
    assert stats.count_nodes([]) == 0


def test_solved_pct_counts_safe_and_unsafe():
    runs = [_run(0, "Safe"), _run(0, "Unsafe"), _run(50, "Unknown"), _run(3, "Unknown")]
    assert stats.solved_pct(runs) == 50.0
    assert stats.solved_pct([]) == 0.0


def test_ratio_base_zero_is_zero():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(0, 0) == 0.0
    assert stats.ratio(5, 0) == 0.0


def test_run_signature_ignores_order_and_time():
    a = [_run(3, "Safe", "case_001"), stats.Run("case_000", "drg", "Unsafe", 1, 9.0)]
    b = [stats.Run("case_000", "drg", "Unsafe", 1, 0.1), _run(3, "Safe", "case_001")]
    assert stats.run_signature(a) == stats.run_signature(b)
    assert stats.run_signature(a) != stats.run_signature([_run(4, "Safe", "case_001"), a[1]])


def test_span_self_and_total_times():
    names = ["A", "B", "C"]
    #        A        B        B        C (under the second B)
    ids = [0, 1, 1, 2]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 5.2]
    ends = [10.0, 4.0, 6.0, 5.5]
    t = stats.span_totals(names, ids, parents, starts, ends)
    assert t["A"].calls == 1 and t["B"].calls == 2 and t["C"].calls == 1
    assert t["A"].self_s == pytest.approx(6.0)
    assert t["B"].self_s == pytest.approx(3.7)
    assert t["C"].self_s == pytest.approx(0.3)
    assert t["B"].total_s == pytest.approx(4.0)
    assert sum(v.self_s for v in t.values()) == pytest.approx(10.0)
    assert stats.count_under(parents, ids, 2, 0) == 1
    assert stats.count_under(parents, ids, 1, 2) == 0


def test_recursive_span_total_is_not_double_counted():
    t = stats.span_totals(["A"], [0, 0], [-1, 0], [0.0, 1.0], [10.0, 5.0])
    assert t["A"].calls == 2
    assert t["A"].total_s == pytest.approx(10.0)
    assert t["A"].self_s == pytest.approx(10.0)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * 2\n\n"
        "class Box:\n    def __init__(self):\n        self.items = []\n"
        "    def push(self, v):\n        self.items.append(v)\n"
        "    def __len__(self):\n        return len(self.items)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in ("fakepkg", "fakepkg.mod"):
        sys.modules.pop(name, None)


def test_tracer_records_nesting_skips_missing_and_restores(fake_package):
    import fakepkg.mod as mod

    seen = []
    targets = (("mod.outer", "mod", "outer"), ("mod.inner", "mod", "inner"),
               ("mod.Box.push", "mod", "Box.push"), ("mod.gone", "mod", "gone"),
               ("mod.Gone.push", "mod", "Gone.push"))
    original_outer = mod.outer
    tracer = Tracer(fake_package, targets,
                    observers={"mod.Box.push": lambda args, _r: seen.append(len(args[0]))})
    tracer.install()
    try:
        assert mod.outer(1) == 4
        box = mod.Box()
        box.push(7)
        box.push(8)
    finally:
        tracer.uninstall()
    assert mod.outer is original_outer
    assert tracer.missing == ["mod.gone", "mod.Gone.push"]
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names == ["mod.outer", "mod.inner", "mod.Box.push", "mod.Box.push"]
    assert list(tracer.parents) == [-1, 0, -1, -1]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    assert seen == [1, 2]


@pytest.fixture
def instance(tmp_path):
    """f(x) = relu(x0) - relu(x1) over [-1, 1]^2 with spec C = [[1]]: violated where x0 <= x1."""
    model = {"input_dim": 2, "layers": [
        {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0], "activation": "relu"},
        {"weights": [[1.0, -1.0]], "bias": [0.0], "activation": "linear"}]}
    spec = {"input_lower": [-1.0, -1.0], "input_upper": [1.0, 1.0], "C": [[1.0]]}
    m, s = tmp_path / "m.json", tmp_path / "s.json"
    m.write_text(json.dumps(model))
    s.write_text(json.dumps(spec))
    return str(m), str(s)


def test_witness_check_recomputes_margin(instance):
    assert checks.witness_violates(*instance, [0.0, 0.5])
    assert not checks.witness_violates(*instance, [0.5, 0.0])
    assert not checks.witness_violates(*instance, [0.0, 1.5])  # outside the box


def test_attack_finds_violation_and_respects_safe_boxes(instance, tmp_path):
    assert checks.attack_finds_violation(*instance, samples=10, seed=0)
    safe_spec = tmp_path / "safe.json"
    safe_spec.write_text(json.dumps(
        {"input_lower": [0.5, -1.0], "input_upper": [1.0, 0.25], "C": [[1.0]]}))
    assert not checks.attack_finds_violation(instance[0], str(safe_spec), samples=5000, seed=0)


def test_scaled_seconds_leaves_out_inner_calibrations_and_rescales_each_stretch():
    assert stats.scaled_seconds(0.0, 10.0, [], 0.4, 0.4, 0.4) == pytest.approx((10.0, 10.0))
    assert stats.scaled_seconds(0.0, 10.0, [], 0.8, 0.8, 0.4) == pytest.approx((10.0, 5.0))
    raw, scaled = stats.scaled_seconds(0.0, 9.0, [(4.0, 5.0, 0.8)], 0.4, 0.4, 0.4)
    assert raw == pytest.approx(8.0)
    assert scaled == pytest.approx(4.0 * 0.4 / 0.6 * 2)
