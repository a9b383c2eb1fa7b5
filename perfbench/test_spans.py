"""Tests for span self times: python3 -m pytest perfbench"""

import itertools

import pytest

import run
from spans import Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        ["pipeline.verify", 0.0, 10.0, -1],
        ["manifolds.build", 1.0, 6.0, 0],
        ["ring.validate", 2.0, 5.0, 1],
        ["ring.validate", 7.0, 9.0, 0],
    ]
    out = self_times(spans)
    assert out["pipeline.verify"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert out["manifolds.build"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0}
    assert out["ring.validate"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_tracer_records_parents_and_counts():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.counted("leaf_calls", lambda: None)
    inner = tracer.timed("inner", lambda: leaf())

    def body():
        inner()
        inner()

    tracer.timed("outer", body)()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    out = self_times(tracer.spans)
    assert out["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert out["inner"]["self_s"] == out["inner"]["total_s"] == 2.0
    assert tracer.counts["leaf_calls"] == 2


@pytest.fixture(scope="module")
def cli():
    return run._import_cli()


def test_traced_verify_nests_build_and_validate(cli, tmp_path):
    doc = tmp_path / "doc.json"
    check = run.run_call(cli, ["check", "torus(3)", "--omega", "vol(1)", "--n", "3",
                               "-o", str(doc)], False, 60)
    assert check["exit"] == 0
    verify = run.run_call(cli, ["verify", str(doc)], True, 60)
    assert verify["exit"] == 0 and verify["stdout"].startswith("OK")
    spans = verify["spans"]
    chain = {(spans[spans[p][3]][0], spans[p][0], name)
             for name, _, _, p in spans if p >= 0 and spans[p][3] >= 0}
    assert ("pipeline.verify", "manifolds.build", "ring.validate") in chain
    root = spans.index(next(s for s in spans if s[0] == "pipeline.verify"))
    children = sum(end - start for _, start, end, p in spans if p == root)
    _, start, end, _ = spans[root]
    assert self_times(spans)["pipeline.verify"]["self_s"] == pytest.approx(
        end - start - children)
