"""The committed benchmark trajectory: every `BENCH_<tag>.json` at the
root of the repo holds the JSON lines `benchmark/run.py` printed, one
run per workload of `BENCHMARK.json` and trace mode.  Only the shape is
checked, not the values."""

import json

from helpers import ROOT


def test_every_bench_file_parses_and_names_every_workload():
    workloads = {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        records = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
        named = {r["workload"] for r in records if "workload" in r}
        assert named == workloads, path.name
        assert any("metrics" in r for r in records), path.name
