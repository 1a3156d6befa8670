"""Forked workers after an overlapped ``infer_batch`` in the parent.

``ParallelHybridCNN.infer_batch`` runs its CNN branch on a worker
thread.  A forked child inherits the parent's memory but not its
threads, so a worker kept across calls would never run work handed to
it in the child; the branch's thread therefore lives only for one call.
Campaign pools fork; both checks run in a fresh interpreter under a
timeout, so a hang fails the test instead of stalling the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

SCRIPT = textwrap.dedent("""
    import multiprocessing

    import numpy as np

    from repro.api import PipelineConfig, build_pipeline
    from repro.campaigns import CampaignSpec, FaultSpec, run_campaign
    from repro.core import hybrid
    from repro.data import render_sign
    from repro.models import small_cnn

    pipeline = build_pipeline(
        PipelineConfig(architecture="parallel"), small_cnn(24, 8)
    )
    images = np.stack([
        render_sign(i % 8, size=24) for i in range(hybrid._OVERLAP_FLOOR)
    ]).astype(np.float32)


    def probabilities(_=None):
        return [r.probabilities.tobytes() for r in pipeline.infer_batch(images)]


    # An overlapped call in this (parent) process before any fork.
    want = probabilities()
    context = multiprocessing.get_context("fork")
    with context.Pool(1) as pool:
        got = pool.apply_async(probabilities).get(timeout=60)
    assert got == want, "forked child's overlapped infer_batch differs"

    spec = CampaignSpec(
        name="fork-safety",
        target="pipeline",
        fault=FaultSpec(kind="transient", params={"probability": 0.002}),
        trials=4,
        seed=5,
        shard_size=1,
        target_params={"input_size": 48, "engine": "vectorized"},
    )
    serial = run_campaign(spec, workers=1)
    forked = run_campaign(spec, workers=2)
    assert serial.complete and forked.complete
    assert serial.fingerprint() == forked.fingerprint()
    print("fork-safe")
""")


def test_forked_workers_after_an_overlapped_call():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().endswith("fork-safe")
