"""Hybrid CNN architectures (paper Figures 1 and 2).

Two shapes of the same idea:

* :class:`ParallelHybridCNN` (Figure 1): the CNN classifies as usual;
  an *independent* reliably-executed shape-recognition block runs on
  the same input, and the reliable-result block qualifies the CNN's
  safety-relevant class with the block's verdict.
* :class:`IntegratedHybridCNN` (Figure 2): the early convolution is
  shared.  Its reliable partition (the DCNN -- e.g. one Sobel-pinned
  filter of ``conv1``) is executed with redundant arithmetic; the
  data path *bifurcates* there: the reliable feature map feeds the
  qualifier while the full feature stack continues through the
  non-reliable remainder of the CNN.

Both produce a :class:`HybridResult` via the same
:class:`ReliableResultBlock` combination logic.
"""

from __future__ import annotations

import enum
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.partition import HybridPartition
from repro.core.qualifier import QualifierVerdict, ShapeQualifier
from repro.nn.layers.activations import softmax
from repro.nn.layers.dense import batch_invariant_inference
from repro.nn.network import Sequential
from repro.reliable.executor import ExecutionReport, ReliableConv2D


#: Batch size from which :meth:`ParallelHybridCNN.infer_batch` runs its
#: CNN branch on a worker thread.  Below it the handoff costs more than
#: the overlap saves (measured sweep in CHANGES.md).
_OVERLAP_FLOOR = 16

#: Images per chunk of an overlapped call's CNN branch (see
#: :class:`_SharedForward`).  At 64 images, 16-image chunks forward as
#: fast as one whole-batch call; 8-image chunks cost ~8% more.
_CNN_CHUNK = 16


def _invariant_forward(model: Sequential, images: np.ndarray) -> np.ndarray:
    """The CNN branch: ``model.forward`` in batch-invariant mode, so a
    sample's logits do not depend on the batch it arrived in."""
    with batch_invariant_inference():
        return model.forward(images)


class _SharedForward:
    """The CNN branch of one overlapped call, in chunks that the worker
    thread and the calling thread claim in order.

    The worker runs chunks from the start; the calling thread, once it
    has qualified, runs whichever are still unclaimed.  A worker that
    falls behind (another process holds the second core) then holds
    the call up only by the chunk it is running, not by the rest of
    the branch.  Each chunk is a batch-invariant forward, so the
    joined logits equal one whole-batch forward bit for bit.
    """

    _guarded_by = {"_lock": ("_next",)}

    def __init__(self, model: Sequential, images: np.ndarray) -> None:
        self._model = model
        self._images = images
        self._starts = range(0, len(images), _CNN_CHUNK)
        self._logits: list[np.ndarray | None] = [None] * len(self._starts)
        self._lock = threading.Lock()
        self._next = 0

    def _claim(self) -> int | None:
        with self._lock:
            k = self._next
            if k == len(self._starts):
                return None
            self._next = k + 1
            return k

    def run(self) -> None:
        """Forward unclaimed chunks until none is left."""
        with batch_invariant_inference():
            while (k := self._claim()) is not None:
                start = self._starts[k]
                self._logits[k] = self._model.forward(
                    self._images[start : start + _CNN_CHUNK]
                )

    def logits(self) -> np.ndarray:
        """The whole batch's logits; call once both threads finished."""
        return np.concatenate(self._logits)


def _qualify_image_batch(qualifier, views: np.ndarray) -> list[QualifierVerdict]:
    """Batched qualification with a per-image fallback.

    Architectures accept any registered qualifier object; one exposing
    ``check_batch`` (e.g. :class:`~repro.core.qualifier.ShapeQualifier`
    with its engine policy) qualifies the whole stack in vectorized
    passes, anything else degrades to the per-image loop.
    """
    check_batch = getattr(qualifier, "check_batch", None)
    if check_batch is not None:
        return check_batch(views)
    return [qualifier.check(view) for view in views]


def _qualify_feature_map_batch(
    qualifier, feature_maps: np.ndarray
) -> list[QualifierVerdict]:
    """Batched feature-map qualification with a per-image fallback."""
    check_batch = getattr(qualifier, "check_feature_map_batch", None)
    if check_batch is not None:
        return check_batch(feature_maps)
    return [qualifier.check_feature_map(fm) for fm in feature_maps]


class Decision(enum.Enum):
    """Final verdict of the reliable-result block."""

    #: CNN says safety class, qualifier confirms: dependable positive.
    CONFIRMED = "confirmed"
    #: CNN says safety class, qualifier denies: suppressed (prevents a
    #: false positive on the safety class).
    REJECTED_BY_QUALIFIER = "rejected_by_qualifier"
    #: CNN predicts a non-safety class; used without qualification
    #: ("classifications that are not considered safety critical ...
    #: can be used without any qualification").
    NOT_SAFETY_CRITICAL = "not_safety_critical"
    #: Qualifier found the shape but the CNN disagreed: flagged for a
    #: supervisory layer (possible CNN false negative).
    SHAPE_WITHOUT_CLASS = "shape_without_class"
    #: The qualifier's own redundant execution failed persistently --
    #: the dependable path is unavailable and the safety class cannot
    #: be confirmed.
    QUALIFIER_UNAVAILABLE = "qualifier_unavailable"


#: Decisions in which the qualifier flagged the result for attention
#: beyond normal use: a suppressed safety-class positive, a shape the
#: CNN missed, or an unavailable dependable path.  The serving layer
#: routes these to its graceful-degradation hook
#: (:class:`repro.serving.server.PipelineServer`); a supervisory layer
#: decides what "degraded" means operationally (slow down, hand off,
#: alert).
FLAGGED_DECISIONS = frozenset({
    Decision.REJECTED_BY_QUALIFIER,
    Decision.SHAPE_WITHOUT_CLASS,
    Decision.QUALIFIER_UNAVAILABLE,
})


@dataclass
class HybridResult:
    """Everything the hybrid network produces for one input.

    Attributes
    ----------
    probabilities:
        Softmax class confidences from the (non-reliable) CNN.
    predicted_class:
        Argmax class index.
    verdict:
        The qualifier's :class:`QualifierVerdict`.
    decision:
        The reliable-result combination (see :class:`Decision`).
    reliable_report:
        Diagnostics of the reliable execution (integrated hybrid
        only; None for the parallel architecture).
    """

    probabilities: np.ndarray
    predicted_class: int
    verdict: QualifierVerdict
    decision: Decision
    reliable_report: ExecutionReport | None = None

    @property
    def confirmed(self) -> bool:
        """True only for a dependable positive on the safety class."""
        return self.decision is Decision.CONFIRMED

    @property
    def flagged(self) -> bool:
        """True when the qualifier flagged this result for supervisory
        attention (see :data:`FLAGGED_DECISIONS`)."""
        return self.decision in FLAGGED_DECISIONS


class ReliableResultBlock:
    """Combine CNN output with the qualifier verdict (Figures 1 and 2).

    Parameters
    ----------
    safety_class:
        Index of the class requiring qualification (the "Stop" sign).
    """

    def __init__(self, safety_class: int) -> None:
        self.safety_class = safety_class

    def combine(
        self, probabilities: np.ndarray, verdict: QualifierVerdict
    ) -> tuple[int, Decision]:
        predicted = int(np.argmax(probabilities))
        if not verdict.reliable:
            # The dependable path itself failed; never confirm.
            if predicted == self.safety_class:
                return predicted, Decision.QUALIFIER_UNAVAILABLE
            return predicted, Decision.NOT_SAFETY_CRITICAL
        if predicted == self.safety_class:
            if verdict.matches:
                return predicted, Decision.CONFIRMED
            return predicted, Decision.REJECTED_BY_QUALIFIER
        if verdict.matches:
            return predicted, Decision.SHAPE_WITHOUT_CLASS
        return predicted, Decision.NOT_SAFETY_CRITICAL


class ParallelHybridCNN:
    """Figure 1: independent qualifier in parallel with the CNN.

    The two branches share nothing but the input, and
    :meth:`infer_batch` runs them concurrently: the CNN on a worker
    thread, the qualifier on the calling thread, which then runs any
    CNN chunks the worker has not reached.  :meth:`infer` runs them one
    after the other -- it is the serial parity oracle.

    Parameters
    ----------
    model:
        Trained classifier ending in logits.
    qualifier:
        The reliable shape qualifier, run on the raw input image.
    safety_class:
        Class index to be qualified.
    """

    def __init__(
        self,
        model: Sequential,
        qualifier: ShapeQualifier,
        safety_class: int,
    ) -> None:
        self.model = model
        self.qualifier = qualifier
        self.result_block = ReliableResultBlock(safety_class)

    def infer(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None = None,
    ) -> HybridResult:
        """Classify one ``(3, h, w)`` image with qualification.

        ``qualifier_view`` optionally gives the qualifier a different
        rendering of the same scene (e.g. the CNN at its 32px training
        resolution, the shape detector at 128px); by default the
        qualifier sees ``image`` itself.
        """
        # Cast exactly like infer_batch so single and batched calls
        # feed the qualifier identical pixels (the model casts to
        # float32 internally either way).
        image = np.asarray(image, dtype=np.float32)
        probabilities = softmax(_invariant_forward(self.model, image[None]))[0]
        verdict = self.qualifier.check(
            image if qualifier_view is None
            else np.asarray(qualifier_view, dtype=np.float32)
        )
        predicted, decision = self.result_block.combine(
            probabilities, verdict
        )
        return HybridResult(probabilities, predicted, verdict, decision)

    def infer_batch(
        self,
        images: np.ndarray,
        qualifier_views: np.ndarray | None = None,
    ) -> list[HybridResult]:
        """Classify ``(n, 3, h, w)`` images, both branches batched.

        The CNN branch is batched
        :meth:`~repro.nn.network.Sequential.forward` calls instead of
        n per-image passes, and the qualifier branch one
        :meth:`ShapeQualifier.check_batch` -- whole-batch edge maps,
        array labelling and one SAX/MINDIST pass under the batched
        engine (:mod:`repro.core.qualifier_batch`).  From
        ``_OVERLAP_FLOOR`` images on, a worker thread runs the CNN
        branch in ``_CNN_CHUNK``-image chunks while the calling thread
        qualifies, and the calling thread then runs the chunks the
        worker has not reached (:class:`_SharedForward`); both threads
        finish before the reliable-result block combines the branches.
        When the qualifier raises, the error propagates once the CNN
        branch has finished; a CNN error propagates as is.

        Probabilities, verdicts and decisions are bitwise identical to
        n :meth:`infer` calls: every layer's batched arithmetic is
        per-sample shape-stable (see
        :func:`repro.nn.layers.dense.batch_invariant_inference`) and
        the qualifier engine's ``"auto"`` policy vectorizes only when
        provably bit-identical.
        """
        images = np.asarray(images, dtype=np.float32)
        if qualifier_views is not None and len(qualifier_views) != len(
            images
        ):
            raise ValueError(
                f"{len(images)} images but {len(qualifier_views)} "
                "qualifier views; each image needs exactly one view"
            )
        if len(images) == 0:
            return []
        if len(images) < _OVERLAP_FLOOR:
            logits = _invariant_forward(self.model, images)
            verdicts = self._qualify_batch(images, qualifier_views)
        else:
            cnn = _SharedForward(self.model, images)
            # One worker thread per call, joined when the block exits --
            # also when the qualifier raises -- so no branch outlives
            # the call and no thread is shared between pipelines or
            # inherited by a forked process.
            with ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="hybrid-cnn-branch"
            ) as worker:
                helper = worker.submit(cnn.run)
                verdicts = self._qualify_batch(images, qualifier_views)
                cnn.run()
            helper.result()
            logits = cnn.logits()
        probabilities = softmax(logits)
        results = []
        for i in range(len(images)):
            predicted, decision = self.result_block.combine(
                probabilities[i], verdicts[i]
            )
            results.append(
                HybridResult(
                    probabilities[i], predicted, verdicts[i], decision
                )
            )
        return results

    def _qualify_batch(
        self, images: np.ndarray, qualifier_views
    ) -> list[QualifierVerdict]:
        """The qualifier branch of :meth:`infer_batch`."""
        if qualifier_views is None:
            return _qualify_image_batch(self.qualifier, images)
        try:
            views = np.asarray(qualifier_views, dtype=np.float32)
        except ValueError:
            # Ragged views (one resolution per scene) cannot stack;
            # qualify per image exactly as n infer() calls would.
            return [
                self.qualifier.check(np.asarray(view, dtype=np.float32))
                for view in qualifier_views
            ]
        return _qualify_image_batch(self.qualifier, views)


class IntegratedHybridCNN:
    """Figure 2: shared early layers, bifurcating reliable data path.

    The partition's bifurcation layer is executed in two parts:

    * reliable filters (the DCNN) through
      :class:`~repro.reliable.executor.ReliableConv2D` with qualified
      redundant arithmetic;
    * remaining filters natively.

    The reliable filters' feature maps feed the qualifier
    (:meth:`ShapeQualifier.check_feature_map`); the complete feature
    stack continues through the rest of the CNN.  With the reliable
    filter pinned to a Sobel stack during training (see
    :class:`repro.nn.trainer.FilterPin`) the bifurcated map is an edge
    response the dependable model understands.

    Parameters
    ----------
    model:
        Trained classifier whose first convolution carries the pinned
        dependable filter(s).
    qualifier:
        Shape qualifier consuming the bifurcated feature map.
    partition:
        The reliable/non-reliable split (defaults to the paper's: one
        filter of ``conv1`` under DMR).
    safety_class:
        Class index to be qualified.
    """

    def __init__(
        self,
        model: Sequential,
        qualifier: ShapeQualifier,
        safety_class: int,
        partition: HybridPartition | None = None,
    ) -> None:
        self.model = model
        self.qualifier = qualifier
        self.partition = partition or HybridPartition()
        self.partition.validate_against(model)
        self.result_block = ReliableResultBlock(safety_class)
        self._bif_index = model.index_of(self.partition.bifurcation_layer)
        self._bif_layer = model[self._bif_index]
        self._reliable_conv = ReliableConv2D(
            self._bif_layer,
            operator=self.partition.redundancy,
            on_persistent_failure="mark",
            engine=self.partition.engine,
        )

    def infer(self, image: np.ndarray) -> HybridResult:
        """Classify one ``(3, h, w)`` image through the hybrid path."""
        return self._infer_stack(
            np.asarray(image, dtype=np.float32)[None]
        )[0]

    def infer_batch(self, images: np.ndarray) -> list[HybridResult]:
        """Classify ``(n, 3, h, w)`` images in one vectorised pass.

        The shared prefix, the reliable partition
        (:class:`~repro.reliable.executor.ReliableConv2D` is already
        batch-aware), the non-reliable remainder and the feature-map
        qualifier (``check_feature_map_batch``) each run once on the
        whole batch, one after the other.  Unlike
        :class:`ParallelHybridCNN` nothing overlaps: both branches wait
        for the reliable conv, and the CNN remainder after it is a small
        share of the flush next to the feature-map qualifier.
        Probabilities and decisions are bitwise
        identical to n :meth:`infer` calls; the reliable executor
        allocates its leaky bucket per image, so even abort points
        match single-image inference.  Each result's
        ``reliable_report`` is that image's slice of the batched
        :class:`~repro.reliable.executor.ExecutionReport`
        (``report.per_image``), equivalent counter-for-counter to the
        report the same image would get from :meth:`infer` --
        ``elapsed_seconds`` aside, which repeats the batch wall time.
        A custom engine that does not populate ``per_image`` degrades
        to attaching the aggregate report to every result.
        """
        return self._infer_stack(np.asarray(images, dtype=np.float32))

    def _infer_stack(self, x: np.ndarray) -> list[HybridResult]:
        if len(x) == 0:
            return []
        with batch_invariant_inference():
            return self._infer_stack_invariant(x)

    def _infer_stack_invariant(self, x: np.ndarray) -> list[HybridResult]:
        # Shared prefix up to the bifurcation layer (usually empty:
        # conv1 is the first layer).
        x = self.model.forward_until(x, self._bif_index)
        reliable_filters = list(
            self.partition.reliable_filters[self.partition.bifurcation_layer]
        )
        features, report = self._reliable_conv.forward(
            x, filters=reliable_filters
        )
        # Images whose dependable arithmetic aborted persistently:
        # their verdict is unavailable, never computed from NaN maps.
        failed_images = {pos[0] for pos in report.failed_outputs}
        # The full stack continues onward through the CNN...
        logits = self.model.forward_from(features, self._bif_index + 1)
        probabilities = softmax(logits)
        # ... while the reliable maps bifurcate to the qualifier, all
        # surviving images in one batched pass.
        verdicts: list[QualifierVerdict | None] = [
            QualifierVerdict.unavailable() if i in failed_images else None
            for i in range(len(features))
        ]
        alive = [i for i in range(len(features)) if i not in failed_images]
        if alive:
            stacked = features[np.ix_(alive, reliable_filters)]
            for i, verdict in zip(
                alive, _qualify_feature_map_batch(self.qualifier, stacked)
            ):
                verdicts[i] = verdict
        # Per-image report attribution: each result carries its own
        # slice of the batched execution, so batch and serial paths
        # report equivalently.  Engines that leave per_image empty
        # (custom registrations) fall back to the aggregate.
        per_image = (
            report.per_image
            if len(report.per_image) == len(features)
            else None
        )
        results = []
        for i in range(len(features)):
            predicted, decision = self.result_block.combine(
                probabilities[i], verdicts[i]
            )
            results.append(HybridResult(
                probabilities[i], predicted, verdicts[i], decision,
                reliable_report=(
                    per_image[i] if per_image is not None else report
                ),
            ))
        return results
