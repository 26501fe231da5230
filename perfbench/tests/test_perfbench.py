"""Tests of the benchmark itself: span arithmetic, tracing, golden checks.

    python3 -m pytest -q perfbench/tests

Run from the root of the repository.  They take well under a minute; the
slowest runs expand-zz end to end with a tampered golden result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from etaq import congruence  # noqa: E402

# three passing rows of three kinds and a planted control,
# all with small bounds so the test stays fast
SMALL_CLAIMS = (
    "two-exponent:delta:l3",
    "square-class:delta:l23",
    "square-class:delta:l29",
    "twist-power:eta2^3 eta6^3:l3^2",
)


def span(sid, parent, name, start, end, attrs=None, thread=1):
    return (sid, parent, name, start, end, thread, None, attrs)


def test_self_times_subtract_the_union_of_children():
    spans = [
        span(1, None, "cli.main", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0),  # overlaps its sibling
        span(4, 1, "c", 8.0, 12.0),  # runs past its parent's end
        span(5, 2, "d", 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)
    assert tracing.covered(0.0, 1.0, []) == 0.0


def test_layer_metrics_on_a_synthetic_tree():
    expand = {"terms": 11, "ring": "Z/2", "form": "eta1^24"}
    spans = [
        span(1, None, "cli.main", 0.0, 10.0),
        span(2, 1, "congruence.verify_claims", 0.5, 9.5, {"jobs": 2}),
        span(3, 2, "congruence.verify_claim", 0.5, 8.5, thread=2),
        span(4, 2, "congruence.verify_claim", 0.5, 4.5, thread=3),
        span(5, 3, "congruence.cache", 1.0, 5.0, {"ring": "Z/2"}),
        span(6, 5, "etaquot.expand", 1.0, 4.0, expand),
        span(7, 4, "congruence.cache", 1.0, 1.5, {"ring": "Z/2"}),
        span(8, 3, "eisenstein.build", 5.0, 7.0, {"terms": 5}),
        span(9, 8, "eisenstein.build", 5.5, 6.5, {"terms": 5}),  # E_k from G_k
        span(10, 3, "sturm.bound", 7.0, 7.5, {"value": 10}),
    ]
    m = tracing.layer_metrics(spans, untraced_wall=9.0, traced_wall=10.0)
    assert list(m) == list(tracing.PER_LAYER)
    assert m["congruence.cache.lookups"] == 2
    assert m["congruence.cache.misses"] == 1
    assert m["congruence.cache.hit_ratio"] == 0.5
    assert m["congruence.cache.terms_expanded"] == 11
    assert m["congruence.cache.terms_retained"] == 11
    assert m["eisenstein.build.calls"] == 1
    assert m["eisenstein.build.terms"] == 5
    assert m["eisenstein.build.s"] == pytest.approx(2.0)
    assert m["congruence.pool.busy_s"] == pytest.approx(12.0)
    assert m["congruence.pool.idle_s"] == pytest.approx(2 * 9.0 - 12.0)
    assert m["sturm.bound.sum"] == 10
    assert m["trace.unattributed_s"] == pytest.approx(1.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def small_calls(tmp_path):
    from etaq import claims

    picked = [c.to_json() for c in claims.builtin_claims() if c.claim_id in SMALL_CLAIMS]
    assert len(picked) == len(SMALL_CLAIMS)
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": picked}))
    return [
        ["verify", str(path), "--format", "json"],
        ["scan", "--form", "eta1^2 eta11^2", "--type", "I", "--ell-max", "7", "--format", "json"],
        ["expand", "--form", "eta3^8", "--terms", "40"],
    ]


def run_calls(calls, tracer=None):
    congruence.clear_expansion_cache()
    outputs = []
    for argv in calls:
        if tracer is None:
            outputs.append(workloads.call_cli(argv))
        else:
            with tracer.item(workloads.item_name(argv)):
                outputs.append(workloads.call_cli(argv))
    return outputs


def test_traced_and_untraced_outputs_agree_and_wrappers_come_off(tmp_path):
    import etaq
    from etaq import cli, operators, qseries

    calls = small_calls(tmp_path)
    originals = (congruence.theta, congruence.cached_expansion, qseries.QSeries.__mul__, cli.main)
    plain = run_calls(calls)
    tracer = tracing.Tracer()
    tracer.install()
    assert congruence.theta is not originals[0]
    assert operators.theta is congruence.theta and etaq.theta is congruence.theta
    try:
        traced = run_calls(calls, tracer)
    finally:
        tracer.uninstall()
    assert (congruence.theta, congruence.cached_expansion, qseries.QSeries.__mul__, cli.main) == originals
    assert operators.theta is originals[0] and etaq.theta is originals[0]

    for argv, (rc_a, out_a), (rc_b, out_b) in zip(calls, plain, traced):
        assert rc_a == rc_b == 0
        if argv[0] == "expand":
            assert out_a == out_b
        else:
            assert workloads.strip_seconds(out_a) == workloads.strip_seconds(out_b)
    assert workloads.normalized("mixed", calls, plain) == workloads.normalized("mixed", calls, traced)

    names = {s[2] for s in tracer.spans}
    assert {"cli.main", "congruence.verify.square-class", "congruence.scan", "etaquot.expand"} <= names
    items = {s[6] for s in tracer.spans if s[2] == "congruence.cache"}
    assert "square-class:delta:l23" in items and "scan:eta1^2 eta11^2:two-exponent" in items
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    assert tracing.read_spans(str(path)) == [
        tuple(json.loads(json.dumps(list(s)))) for s in tracer.spans
    ]


def test_a_tampered_golden_or_a_flipped_control_counts_as_wrong(tmp_path):
    calls = small_calls(tmp_path)[:1]
    (rc, out), = run_calls(calls)
    golden = {
        r["claim"]: {f: r.get(f) for f in workloads.VERIFY_FIELDS} for r in json.loads(out)["reports"]
    }
    assert workloads.check_verify(rc, out, golden) == (len(SMALL_CLAIMS), 0, [])

    tampered = json.loads(json.dumps(golden))
    tampered["square-class:delta:l23"]["bound"] += 1
    attempted, wrong, notes = workloads.check_verify(rc, out, tampered)
    assert (attempted, wrong) == (len(SMALL_CLAIMS), 1) and "bound" in notes[0]

    flipped = json.loads(out)
    for r in flipped["reports"]:
        if r["claim"] == "square-class:delta:l29":
            r.update(verdict="proved", status="unexpected-pass", first_failure=None)
    attempted, wrong, notes = workloads.check_verify(1, json.dumps(flipped), golden)
    assert wrong >= 1 and any("planted control not refuted" in n for n in notes)
    assert "exit code 1" in notes


def copy_checkout(dest: Path) -> Path:
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def test_the_run_exits_nonzero_on_a_wrong_output(tmp_path):
    checkout = copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    golden = checkout / "perfbench" / "golden" / "expand.json"
    digests = json.loads(golden.read_text())
    digests["delta"] = "0" * 64
    golden.write_text(json.dumps(digests))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "expand-zz", "--seed", "3", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES and result["attempted"] == 22 * run.MIN_PASSES
    assert "wrong_frac" in proc.stdout


def test_the_run_refuses_a_checkout_without_sources(tmp_path):
    checkout = copy_checkout(tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "expand-zz", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
