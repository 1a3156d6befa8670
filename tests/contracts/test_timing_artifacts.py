"""Benchmark-artifact contract: one schema, enforced everywhere.

CI uploads every ``benchmarks/test_*`` timing JSON; perf tooling
parses them without knowing which bench wrote what.  This tier-1 test
pins the contract from three sides: the shared schema itself
(:mod:`benchmarks.timing_schema`), the benches' source (every bench
that emits a timing artifact must route it through the validating
writer -- no bespoke ``json.dumps`` side channels), and any artifacts
already on disk.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.timing_schema import (
    validate_timing_payload,
    write_timing_artifact,
)

REPO = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "benchmarks"

#: CI-uploaded timing artifact -> the bench that writes it.
UPLOADED_ARTIFACTS = {
    "reliable_vectorized_timing.json": "test_reliable_vectorized.py",
    "qualifier_throughput_timing.json": "test_qualifier_throughput.py",
    "serving_throughput_timing.json": "test_serving_throughput.py",
    "integrated_serving_throughput_timing.json":
        "test_serving_throughput.py",
    "integrated_infer_batch_timing.json": "test_serving_throughput.py",
    "cache_throughput_timing.json": "test_cache_throughput.py",
    "integrated_cache_throughput_timing.json": "test_cache_throughput.py",
}

VALID_PAYLOAD = {
    "bench": "example",
    "batch": 64,
    "serial_seconds": 0.5,
    "served_seconds": 0.1,
    "speedup_vs_serial": 5.0,
    "min_speedup_vs_serial_asserted": 3.0,
    "free_form_extra": {"nested": [1, 2, 3]},
}


def test_valid_payload_passes():
    assert validate_timing_payload(VALID_PAYLOAD) == []


@pytest.mark.parametrize("mutation, fragment", [
    ({"bench": ""}, "bench"),
    ({"bench": None}, "bench"),
    ({"batch": 0}, "batch"),
    ({"batch": True}, "batch"),
    ({"batch": None}, "batch"),
    ({"serial_seconds": -1.0}, "serial_seconds"),
    ({"serial_seconds": float("nan")}, "serial_seconds"),
    ({"speedup_vs_serial": 0.0}, "speedup_vs_serial"),
    ({"min_speedup_vs_serial_asserted": "3"}, "min_speedup"),
])
def test_violations_are_reported(mutation, fragment):
    payload = {**VALID_PAYLOAD, **mutation}
    errors = validate_timing_payload(payload)
    assert errors, f"mutation {mutation} must be rejected"
    assert any(fragment in error for error in errors), errors


def test_missing_walltime_and_speedup_keys_rejected():
    errors = validate_timing_payload({"bench": "x", "batch": 1})
    assert any("_seconds" in e for e in errors)
    assert any("speedup" in e for e in errors)


def test_non_serializable_payload_rejected():
    payload = {
        **VALID_PAYLOAD,
        "raw": object(),
    }
    assert any(
        "JSON" in error for error in validate_timing_payload(payload)
    )


def test_writer_refuses_invalid_payload(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_ARTIFACT_DIR", str(tmp_path))
    with pytest.raises(ValueError, match="shared schema"):
        write_timing_artifact("broken.json", {"bench": "x"})
    assert list(tmp_path.iterdir()) == []


def test_writer_round_trips_valid_payload(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_ARTIFACT_DIR", str(tmp_path))
    path = write_timing_artifact("ok_timing.json", VALID_PAYLOAD)
    assert path.parent == tmp_path
    assert json.loads(path.read_text()) == VALID_PAYLOAD


def test_every_bench_emitting_timing_json_uses_shared_writer():
    """Source-level contract: a bench that mentions a timing artifact
    must import the validating writer and must not hand-roll its own
    JSON dump (the historical side channel this PR removed)."""
    offenders = []
    for bench in sorted(BENCH_DIR.glob("test_*.py")):
        source = bench.read_text()
        emits_timing = "_timing.json" in source
        if not emits_timing:
            continue
        if "write_timing_artifact" not in source:
            offenders.append(f"{bench.name}: bypasses timing_schema")
        if "json.dumps" in source:
            offenders.append(f"{bench.name}: hand-rolled json.dumps")
    assert not offenders, offenders


def test_benches_cover_the_uploaded_artifacts():
    """Every CI-uploaded artifact has a producing bench that routes
    through the shared writer (the serving bench emits one per
    architecture now that the ``parallel`` pin is gone, plus the
    integrated ``infer_batch`` bar)."""
    for artifact, bench in UPLOADED_ARTIFACTS.items():
        source = (BENCH_DIR / bench).read_text()
        assert artifact in source, (bench, artifact)
        assert "write_timing_artifact" in source, bench


def test_existing_artifacts_on_disk_conform():
    """The committed reference artifacts (``benchmarks/reference``)
    must parse and validate -- catching schema drift the moment it
    lands -- and cover every CI-uploaded artifact name."""
    shipped = sorted((BENCH_DIR / "reference").glob("*.json"))
    assert shipped, "no committed reference artifacts"
    for path in shipped:
        errors = validate_timing_payload(json.loads(path.read_text()))
        assert errors == [], (path.name, errors)
    assert {path.name for path in shipped} >= set(UPLOADED_ARTIFACTS)
