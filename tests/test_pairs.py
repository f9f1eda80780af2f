"""The statistics and verdicts of `tools/pairs.py` on canned result lines
of `benchmark/run.py`; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _specs():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(p99, games_per_s, failed=0, correct=True):
    """What `benchmark/run.py --trace 0` prints, its last line the result."""
    metrics = {"games_per_s": games_per_s, "verified_s.p50": 1.0e-4,
               "verified_s.p99": p99, "solve_s.p50": 8.0e-5,
               "certified_frac": 1.0, "setup_s": 0.15, "peak_rss_mb": 37.5}
    lines = [{"machine": {"nproc": 2}},
             {"workload": "tiny-batch", "seed": 1, "instances": 8000},
             {"failures": {}, "host": {"reference_s.p50": 0.09}},
             {"correct": correct, "attempted": 40000, "failed": failed,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}]
    return "\n".join(json.dumps(line) for line in lines) + "\n"


def _pairs(tool, parent, change):
    return [(tool.last_result(_stdout(*p)), tool.last_result(_stdout(*c)))
            for p, c in zip(parent, change)]


def test_rows_hold_medians_wins_quartiles_and_verdicts():
    tool = _load_tool()
    parent = [(500e-6 + i * 1e-6, 7000.0) for i in range(10)]
    # the change: p99 lower in nine pairs of ten, games_per_s 28% lower
    change = [(440e-6 + i * 1e-6, 5000.0) for i in range(9)] \
        + [(520e-6, 5000.0)]
    rows = {spec["name"]: tool.compare(spec, _pairs(tool, parent, change))
            for spec in _specs()}
    p99 = rows["verified_s.p99"]
    assert round(p99.parent * 1e6, 6) == 504.5
    assert round(p99.change * 1e6, 6) == 444.5
    assert (p99.wins, p99.pairs) == (9, 10)
    # the exclusive method: positions 2.75 and 8.25 of the ten values
    assert [round(q * 1e6, 6) for q in p99.quartiles] == [501.75, 507.25]
    assert p99.beyond_spread and p99.gain and not p99.past_bound
    games = rows["games_per_s"]
    assert games.wins == 0 and games.past_bound and not games.gain
    # equal readings are no win, no gain and inside the bound
    frac = rows["certified_frac"]
    assert frac.wins == 0 and not frac.beyond_spread
    assert not frac.gain and not frac.past_bound


def test_eight_wins_of_ten_are_no_gain():
    tool = _load_tool()
    parent = [(500e-6 + i * 1e-6, 7000.0) for i in range(10)]
    change = [(440e-6, 7000.0)] * 8 + [(600e-6, 7000.0)] * 2
    spec = next(s for s in _specs() if s["name"] == "verified_s.p99")
    row = tool.compare(spec, _pairs(tool, parent, change))
    assert row.wins == 8 and row.beyond_spread and not row.gain


def test_report_fails_on_a_bound_a_wrong_run_or_more_failures():
    tool = _load_tool()
    parent = [(500e-6 + i * 1e-6, 7000.0) for i in range(4)]
    same = [(500e-6 + i * 1e-6, 7000.0 + i) for i in range(4)]
    table, ok = tool.report(_specs(), _pairs(tool, parent, same))
    assert ok
    assert table.splitlines()[0].split()[0] == "metric"
    assert "failed attempts: parent 0 of 160000, change 0 of 160000" in table
    slow = [(700e-6, 7000.0)] * 4
    assert not tool.report(_specs(), _pairs(tool, parent, slow))[1]
    wrong = [(500e-6, 7000.0, 0, False)] * 4
    table, ok = tool.report(_specs(), _pairs(tool, parent, wrong))
    assert not ok and "NOT correct" in table
    failing = [(500e-6, 7000.0, 1)] * 4
    assert not tool.report(_specs(), _pairs(tool, parent, failing))[1]


def test_wins_are_split_by_the_tree_that_ran_first():
    # the parent runs first in pairs 0, 2, 4, ...: a change that wins
    # only when it runs first shows 0 of 5 and 5 of 5
    tool = _load_tool()
    assert [tool.parent_first(i) for i in range(4)] \
        == [True, False, True, False]
    parent = [(500e-6 + i * 1e-6, 7000.0) for i in range(10)]
    change = [(520e-6 if i % 2 == 0 else 490e-6, 7000.0 + i % 2)
              for i in range(10)]
    pairs = _pairs(tool, parent, change)
    rows = {spec["name"]: tool.compare(spec, pairs) for spec in _specs()}
    assert (rows["verified_s.p99"].wins,
            rows["verified_s.p99"].wins_by_first) == (5, (0, 5))
    assert rows["games_per_s"].wins_by_first == (0, 5)
    assert rows["certified_frac"].wins_by_first == (0, 0)
    table, _ = tool.report(_specs(), pairs)
    header, *lines = table.splitlines()
    assert header.split()[5:9] == ["P", "first", "C", "first"]
    p99 = next(line for line in lines if line.startswith("verified_s.p99"))
    assert p99.split()[4:7] == ["5/10", "0/5", "5/5"]
    # nine pairs: the parent ran first in five, the change in four
    row = tool.compare(next(s for s in _specs()
                            if s["name"] == "verified_s.p99"),
                       pairs[:9])
    assert row.wins_by_first == (0, 4)
    table, _ = tool.report(_specs(), pairs[:9])
    p99 = next(line for line in table.splitlines()
               if line.startswith("verified_s.p99"))
    assert p99.split()[4:7] == ["4/9", "0/5", "4/4"]
