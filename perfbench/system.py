"""The system under test, built exactly as the serving benches build it.

Importing this module imports ``repro`` (and with it NumPy), which is
why ``setup_probe.py`` starts its clock before importing it.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    PipelineConfig,
    QualifierConfig,
    ServingConfig,
    build_pipeline,
)
from repro.data import render_sign
from repro.data.signs import SIGN_CLASSES
from repro.models.smallcnn import small_cnn

import spec

#: Keeps every latency of a run in ``ServerStats``' cached/computed
#: percentiles, not just the most recent 2048.
LATENCY_WINDOW = 1 << 20


def build(workload: spec.Workload):
    """The pipeline: ``small_cnn`` with its fixed rng-0 weights, a
    redundant qualifier, Sobel pinned only for the integrated hybrid."""
    architecture = workload.architecture
    return build_pipeline(
        PipelineConfig(
            architecture=architecture,
            qualifier=QualifierConfig(redundant=True),
            pin_sobel=architecture == "integrated",
            name=f"perfbench-{architecture}",
        ),
        small_cnn(n_classes=8, input_size=spec.IMAGE_SIZE),
    )


def serving_config(workload: spec.Workload) -> ServingConfig:
    return ServingConfig(
        max_batch=spec.MAX_BATCH,
        max_wait_ms=spec.MAX_WAIT_MS,
        queue_capacity=spec.QUEUE_CAPACITY,
        overflow="block",
        latency_window=LATENCY_WINDOW,
        cache=workload.cache,
        cache_max_entries=spec.CACHE_MAX_ENTRIES,
    )


def set_up(workload: spec.Workload):
    """Build the pipeline, start a server and serve one warm-up flush
    of one sign per class.  Returns the running server (its
    ``pipeline`` attribute is the pipeline); the caller stops it."""
    server = build(workload).serve(serving_config(workload))
    server.start()
    images = [
        render_sign(k, size=spec.IMAGE_SIZE).astype(np.float32)
        for k in range(len(SIGN_CLASSES))
    ]
    for pending in [server.submit(image) for image in images]:
        pending.result(timeout=60)
    return server
