"""Timing spans around the calls into each layer, recorded from the
benchmark's own files.

The wrappers sit on the run's own instances -- ``pipeline.infer_batch``,
the model's ``forward``/``forward_until``/``forward_from`` and the
qualifier's ``check_batch``/``check_feature_map_batch`` -- as instance
attributes that shadow the class methods.  The integrated hybrid's
``ReliableConv2D`` is private, so its ``forward`` is wrapped on the
class for the traced run only and restored afterwards.

Nothing is subclassed or proxied: the batched qualifier and the
speculative reliable engine check exact types, and a proxy would
silently fall back to the scalar engines -- a different program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import NamedTuple

from repro.reliable.executor import ReliableConv2D

FLUSH = "api.infer_batch"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    flush: int  # index of the root span (the flush) it belongs to
    size: int  # batch length for a flush, 0 otherwise


class SpanRecorder:
    """Spans kept in memory, in call order, and written out at the end.

    The wrapped entry points run only on the server's batcher thread,
    so one stack of open spans serves every wrapper."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[tuple[int, int]] = []

    def wrap(self, name: str, function, flush: bool = False):
        """``function`` timed as span ``name``; ``flush`` marks the root
        span whose first argument is the batch."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent, root = stack[-1] if stack else (-1, index)
            stack.append((index, root))
            size = len(args[0]) if flush else 0
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, root, size)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


@contextmanager
def installed(pipeline, recorder: SpanRecorder):
    """Wrap the layer entry points of ``pipeline`` for the duration."""
    model = pipeline.model
    qualifier = pipeline.qualifier
    targets = [
        (pipeline, "infer_batch", FLUSH, True),
        (model, "forward", "nn.forward", False),
        (model, "forward_until", "nn.forward_until", False),
        (model, "forward_from", "nn.forward_from", False),
        (qualifier, "check_batch", "qualifier.check_batch", False),
        (qualifier, "check_feature_map_batch",
         "qualifier.check_feature_map_batch", False),
    ]
    original_conv = ReliableConv2D.__dict__["forward"]
    try:
        for owner, attribute, name, flush in targets:
            setattr(owner, attribute,
                    recorder.wrap(name, getattr(owner, attribute), flush))
        ReliableConv2D.forward = recorder.wrap(
            "reliable.forward", original_conv
        )
        yield recorder
    finally:
        ReliableConv2D.forward = original_conv
        for owner, attribute, _, _ in targets:
            owner.__dict__.pop(attribute, None)
