"""Self-tests of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench
"""
import gzip
import json

import pytest

import harness
import layers
import spans
import workloads

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((harness.HERE / "rationale.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def run(name, trace, seed=3, out_dir=None):
    return harness.run_workload(name, seed, 0.0, trace, workloads.TINY, out_dir=out_dir)


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert sorted(RATIONALE["workloads"]) == sorted(workloads.NAMES)
    assert sorted(RATIONALE["per_layer"]) == sorted(PER_LAYER)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_end_to_end_metrics(name):
    result = run(name, trace=False)
    line = result.line()
    assert list(line["metrics"]) == END_TO_END
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert all(line["metrics"][k]["value"] > 0 for k in END_TO_END)
    assert len(result.details["call_sha256"]) == len(workloads.calls(name, 3, workloads.TINY))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_layers_and_restores_originals(name, tmp_path):
    harness.import_cli()
    tracer = spans.Tracer("snapshot")
    before = [(owner, attr, original) for owner, attr, original, _ in tracer.targets()]
    assert before

    first = run(name, trace=True, out_dir=tmp_path)
    second = run(name, trace=True)

    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner.__name__}.{attr} not restored"
    assert sorted(first.metrics) == sorted(PER_LAYER)
    assert first.line()["correct"]
    assert first.details["counts_repeat"]
    self_total = sum(v for k, (v, _) in first.metrics.items() if k.endswith("_s"))
    assert self_total <= first.details["traced_verdict_mean_s"]
    counts = [k for k in PER_LAYER if k.endswith(("_pts", "_calls", "_cells"))]
    assert [first.metrics[k] for k in counts] == [second.metrics[k] for k in counts]

    with gzip.open(tmp_path / first.details["spans_file"], "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == len(first.tracer.spans)
    assert {r["run"] for r in rows} == {first.tracer.run_id}
    assert all({"id", "parent", "name", "start", "end"} <= set(r) for r in rows)


def test_gate_fails_when_a_check_fails(monkeypatch):
    harness.import_cli()
    from cubewrap.maps import PhiMap

    # The image-volume check's oracle now finds no point of the image.
    monkeypatch.setattr(PhiMap, "image_contains", lambda self, Y: Y[..., 0] < 0)
    result = run("verify", trace=False)
    assert result.check_fail_ratio > 0
    assert not result.line()["correct"]


def test_accept_ratio_counts_what_each_try_accepts():
    harness.import_cli()
    import numpy as np
    from cubewrap.maps import EmbeddingConfig, PhiMap

    phi = PhiMap(EmbeddingConfig(n=2, c=2.0))
    margin, count = 0.05, 1000
    rng = np.random.default_rng(5)
    drawn = accepted = 0
    while accepted < count:  # the tries sample_domain makes
        X = phi._raw_samples(rng, count)
        drawn += len(X)
        accepted += int(phi.smooth_mask(X, margin).sum())
    assert drawn > count

    tracer = spans.Tracer("accept")
    tracer.install()
    try:
        phi.sample_domain(np.random.default_rng(5), count, margin=margin)
    finally:
        tracer.restore()
    ratio, _ = layers.per_layer(tracer.spans, 1, [(0, 0)])["maps.sample_domain_accept_ratio"]
    assert ratio == accepted / drawn


def test_self_times_subtract_children():
    s = [spans.Span(0, None, "a", 0.0, 0), spans.Span(1, 0, "b", 1.0, 0),
         spans.Span(2, 0, "b", 3.0, 0)]
    s[0].end, s[1].end, s[2].end = 10.0, 2.0, 6.0
    assert spans.self_times(s) == {0: 6.0, 1: 1.0, 2: 3.0}
    assert layers.tail_counts(s) == {"topology.rasterize": 0, "topology.psi_rasterize": 0}
