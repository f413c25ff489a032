"""The committed benchmark records ``BENCH_*.json`` are whole and agree
with themselves (layout of ``tools/bench_record.py``)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_the_repository_holds_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_consistent(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert workload["correct"] is True, name
        assert workload["failed"] == dict.fromkeys(SIDES, 0), name
        for metric, m in workload["metrics"].items():
            where = "%s %s" % (name, metric)
            for side in SIDES:
                assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"], (
                    where, side)
            assert 0 <= m["change_wins"] <= workload["pairs"], where
            if "pairs" in m:
                assert len(m["pairs"]) == workload["pairs"], where
            orders = m.get("by_order", {}).values()
            if orders:
                assert sum(o["pairs"] for o in orders) == \
                    workload["pairs"], where
                assert sum(o["change_wins"] for o in orders) == \
                    m["change_wins"], where
    # An unseen-seed pair is stored with each workload; older records hold
    # one pair, of their first workload, at the top level.
    unseen = [(name, w["unseen_seed"])
              for name, w in record["workloads"].items() if "unseen_seed" in w]
    if "unseen_seed" in record:
        unseen.append((record["unseen_seed"]["workload"],
                       record["unseen_seed"]))
    for name, pair in unseen:
        assert name in record["workloads"], name
        for side in SIDES:
            assert pair[side].get("failed", 0) == 0, (name, side)
