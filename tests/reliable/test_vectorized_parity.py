"""Parity suite: the vectorized engine vs scalar Algorithm 3.

The speculate-then-verify engine's contract
(:mod:`repro.reliable.vectorized`) is *bitwise identity* with the
scalar per-operation path whenever speculation is exact: same output
words, same ``ExecutionReport`` counters, same abort point, same
``failed_outputs``.  This suite sweeps that contract property-style
across operators {plain, dmr, tmr}, fault-free and (deterministically)
fault-injected units, ``filters=`` subsets and batch sizes, then
checks the stochastic-injection and fallback behaviours separately.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import PermanentFault, TransientFault
from repro.nn import Conv2D
from repro.reliable.errors import PersistentFailureError
from repro.reliable.execution_unit import (
    ExecutionUnit,
    Float32ExecutionUnit,
    Float64ArrayUnit,
    PerfectExecutionUnit,
    as_array_unit,
)
from repro.reliable.executor import ReliableConv2D, engine_names
from repro.reliable.operators import (
    PlainOperator,
    RedundantOperator,
    TMROperator,
)
from repro.reliable.vectorized import (
    can_speculate,
    speculation_is_exact,
)


@pytest.fixture
def conv(rng):
    return Conv2D(2, 3, 3, stride=1, rng=rng, name="conv")


@pytest.fixture
def batch(rng):
    return rng.standard_normal((2, 2, 6, 6)).astype(np.float32)


OPERATOR_CLASSES = {
    "plain": PlainOperator,
    "dmr": RedundantOperator,
    "tmr": TMROperator,
}

#: Deterministic units: speculation must be provably exact for all of
#: these.  The permanent-fault units include exponent/sign flips that
#: drive values through inf and NaN -- the words the fixed comparators
#: must agree on.
def _units():
    return {
        "perfect": PerfectExecutionUnit(),
        "float32": Float32ExecutionUnit(),
        "stuck-exponent": FaultyExecutionUnit(PermanentFault(bit=30)),
        "stuck-sign": FaultyExecutionUnit(PermanentFault(bit=31)),
        "stuck-mantissa-f32": FaultyExecutionUnit(
            PermanentFault(bit=3), Float32ExecutionUnit()
        ),
    }


def _report_key(report):
    return (
        report.operations,
        report.errors_detected,
        report.rollbacks,
        report.persistent_failures,
        [tuple(int(x) for x in pos) for pos in report.failed_outputs],
        report.operator_kind,
    )


def _assert_bitwise(scalar, vectorized, context):
    out_s, rep_s = scalar
    out_v, rep_v = vectorized
    assert out_s.shape == out_v.shape, context
    assert out_s.tobytes() == out_v.tobytes(), context
    assert _report_key(rep_s) == _report_key(rep_v), context


class TestExactParity:
    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    @pytest.mark.parametrize("unit_name", sorted(_units()))
    @pytest.mark.parametrize("filters", [None, [1], [0, 2], []])
    def test_bitwise_identical(
        self, conv, batch, op_name, unit_name, filters
    ):
        op_cls = OPERATOR_CLASSES[op_name]
        scalar = ReliableConv2D(
            conv, op_cls(_units()[unit_name]), engine="scalar",
            bucket_ceiling=50,
        ).forward(batch, filters=filters)
        vectorized = ReliableConv2D(
            conv, op_cls(_units()[unit_name]), engine="vectorized",
            bucket_ceiling=50,
        ).forward(batch, filters=filters)
        _assert_bitwise(scalar, vectorized, (op_name, unit_name, filters))

    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    @pytest.mark.parametrize("unit_name", sorted(_units()))
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_geometries_bitwise_identical(
        self, op_name, unit_name, stride, padding
    ):
        """Strided, padded, non-square, 3-channel convolutions: the
        per-tap views of the padded input must pick exactly the
        im2col patch words."""
        rng = np.random.default_rng(7)
        conv = Conv2D(3, 3, 3, stride=stride, padding=padding, rng=rng)
        batch = rng.standard_normal((2, 3, 7, 9)).astype(np.float32)
        op_cls = OPERATOR_CLASSES[op_name]
        runs = [
            ReliableConv2D(
                conv, op_cls(_units()[unit_name]), engine=engine,
                bucket_ceiling=50,
            ).forward(batch, filters=[0, 2])
            for engine in ("scalar", "vectorized")
        ]
        _assert_bitwise(*runs, (op_name, unit_name, stride, padding))

    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    def test_single_image_matches_batch_slice(self, conv, batch, op_name):
        """Per-image independence: each batched image's words equal its
        own single-image run (the per-image bucket contract)."""
        op_cls = OPERATOR_CLASSES[op_name]
        executor = ReliableConv2D(conv, op_cls(), engine="vectorized")
        full, _ = executor.forward(batch)
        for i in range(len(batch)):
            single, _ = executor.forward(batch[i : i + 1])
            assert single[0].tobytes() == full[i].tobytes()

    def test_exactness_predicate(self):
        assert speculation_is_exact(RedundantOperator())
        assert speculation_is_exact(
            TMROperator(Float32ExecutionUnit())
        )
        assert speculation_is_exact(
            PlainOperator(FaultyExecutionUnit(PermanentFault(bit=7)))
        )
        assert not speculation_is_exact(
            RedundantOperator(
                FaultyExecutionUnit(
                    TransientFault(0.1, np.random.default_rng(0))
                )
            )
        )

    def test_auto_resolution_policy(self, conv):
        assert ReliableConv2D(conv, "dmr")._resolve_engine() == "vectorized"
        faulty = RedundantOperator(
            FaultyExecutionUnit(TransientFault(0.1, np.random.default_rng(0)))
        )
        assert ReliableConv2D(conv, faulty)._resolve_engine() == "scalar"
        assert (
            ReliableConv2D(conv, "tmr", engine="scalar")._resolve_engine()
            == "scalar"
        )


class TestStochasticInjection:
    """Array-level injection on the speculative passes: campaigns still
    exercise detection, rollback and abort through the engine."""

    def _faulty(self, probability, seed, **kwargs):
        return RedundantOperator(
            FaultyExecutionUnit(
                TransientFault(probability, np.random.default_rng(seed))
            )
        ), kwargs

    def test_detects_and_repairs_transients(self, conv, batch):
        operator, _ = self._faulty(0.01, seed=3)
        executor = ReliableConv2D(
            conv, operator, engine="vectorized", bucket_ceiling=10_000
        )
        out, report = executor.forward(batch)
        assert report.errors_detected > 0
        assert report.rollbacks == report.errors_detected
        assert report.persistent_failures == 0
        clean, clean_report = ReliableConv2D(
            conv, "dmr", engine="vectorized"
        ).forward(batch)
        # Every disagreeing element was repaired through scalar
        # Algorithm 3 back to the fault-free words.
        assert out.tobytes() == clean.tobytes()
        # Stats-compatible accounting: the speculative attempt of each
        # disagreeing element plus its scalar re-execution come on top
        # of the clean per-element operation count.
        assert report.operations > clean_report.operations

    def test_persistent_disagreement_marks_and_continues(self, conv, batch):
        operator, _ = self._faulty(0.9, seed=4)
        executor = ReliableConv2D(
            conv, operator, engine="vectorized",
            on_persistent_failure="mark",
        )
        out, report = executor.forward(batch, filters=[0])
        assert report.persistent_failures > 0
        assert report.failed_outputs
        for img, f, i, j in report.failed_outputs:
            assert f == 0
            assert np.isnan(out[img, f, i, j])
        # Filters outside the reliable partition stay clean.
        assert not np.isnan(out[:, 1:]).any()

    def test_persistent_disagreement_raises(self, conv, batch):
        operator, _ = self._faulty(0.9, seed=5)
        executor = ReliableConv2D(conv, operator, engine="vectorized")
        with pytest.raises(PersistentFailureError):
            executor.forward(batch)


class TestPinnedFaultStream:
    """Seeded transient-fault runs pinned to recorded digests: the
    speculative passes must keep making the same fault draws, in the
    same order and call shapes, so a change to how the pass reads its
    operands cannot resample the fault process."""

    #: (operator, probability, seed, in_channels, stride, padding,
    #: (h, w), filters) -> (sha256 of output bytes, counters, number of
    #: failed outputs, sha256 of repr(_report_key)).
    PINS = {
        ("dmr", 0.01, 3, 2, 1, 0, (6, 6), None): (
            "2f11867f06a288864456a5cfb1159ea92373cbe3d518be3b8673cb1eeaa3644b",
            (3501, 95, 91, 4), 4,
            "d56d3f7f9e38fdade811427f5a47c7af44e4f7f05776a1f3899c6e08a40d192e",
        ),
        ("tmr", 0.01, 3, 2, 1, 0, (6, 6), None): (
            "1c7adae4fcfeeda5d2d020ecb662cdfb6f7e9bfc24195aef2ff946350bae7066",
            (3578, 26, 26, 0), 0,
            "7997773e2c4d49c9cdd44655e0a93951f9b721e64f9c88577e65a7125096e472",
        ),
        ("dmr", 0.9, 4, 2, 1, 0, (6, 6), (0,)): (
            "f0f4621d56bcb900d59789bb9747bb9ea4963cac3a4cad713e4e71a2233a8103",
            (65, 64, 32, 32), 32,
            "d929235ec04c29dc2d9c93b2224bd6f6d5f850960aff2ed8f59e7c49eb0f54f9",
        ),
        ("tmr", 0.9, 4, 2, 1, 0, (6, 6), (0,)): (
            "f0f4621d56bcb900d59789bb9747bb9ea4963cac3a4cad713e4e71a2233a8103",
            (67, 64, 32, 32), 32,
            "48827ed05f2136b4c26f48137df8781e890331cffd3ae0119203208956277936",
        ),
        ("dmr", 0.02, 6, 3, 2, 2, (7, 9), None): (
            "829352b74affd3d245b579d7795a2c9b27904a9a1efadc452d3d3b8cb1e34ecf",
            (8628, 408, 368, 40), 40,
            "e3478bdebe3a30094567fe08a0478916480e18d146ab7980c210639072dd7ca0",
        ),
        ("tmr", 0.02, 6, 3, 2, 2, (7, 9), (1, 2)): (
            "fe8c533c3b51e87b5a9615375add91e5583426ac4dd1b441282fd323f4c43786",
            (6672, 72, 72, 0), 0,
            "f1b812e3ae5da92ab829b6852b8830645a8e76325040d744cee220f339dc9f3a",
        ),
    }

    @staticmethod
    def _run(case):
        op_name, probability, seed, c, stride, padding, (h, w), filters = (
            case
        )
        rng = np.random.default_rng(2024)
        conv = Conv2D(c, 3, 3, stride=stride, padding=padding, rng=rng)
        batch = rng.standard_normal((2, c, h, w)).astype(np.float32)
        operator = OPERATOR_CLASSES[op_name](
            FaultyExecutionUnit(
                TransientFault(probability, np.random.default_rng(seed))
            )
        )
        return ReliableConv2D(
            conv, operator, engine="vectorized",
            on_persistent_failure="mark",
        ).forward(batch, filters=None if filters is None else list(filters))

    @pytest.mark.parametrize("case", sorted(PINS, key=repr), ids=repr)
    def test_stream_matches_pin(self, case):
        out, report = self._run(case)
        key = _report_key(report)
        digest, counters, n_failed, key_digest = self.PINS[case]
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
        assert key[:4] == counters
        assert len(key[4]) == n_failed
        assert hashlib.sha256(repr(key).encode()).hexdigest() == key_digest


class _RecordingArrayUnit(Float64ArrayUnit):
    def __init__(self, log):
        self.log = log

    def multiply(self, a, b, out=None):
        self.log.append(a)
        return super().multiply(a, b, out=out)


class _RecordingUnit(ExecutionUnit):
    """Binary64 unit whose array form logs every multiply's operands."""

    def __init__(self):
        self.multiplicands = []

    def multiply(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def as_array_unit(self):
        return _RecordingArrayUnit(self.multiplicands)


class TestSpeculativeOperandLayout:
    def test_tap_operands_are_unit_stride(self, conv, batch):
        """A stride-1 conv's per-tap operands step one element along
        the output row: no strided gather in the speculative pass."""
        unit = _RecordingUnit()
        ReliableConv2D(
            conv, RedundantOperator(unit), engine="vectorized"
        ).forward(batch)
        taps = conv.in_channels * conv.kernel_size**2
        assert len(unit.multiplicands) == taps
        for operand in unit.multiplicands:
            assert operand.strides[-1] == operand.itemsize


class TestScalarFallback:
    """Operators/units the engine cannot speculate run the scalar path
    verbatim -- ``engine="vectorized"`` is always safe to request."""

    class StickyDisagree(RedundantOperator):
        def multiply(self, a, b):
            from repro.reliable.qualified import QualifiedValue

            return QualifiedValue(a * b, False)

    def test_custom_operator_not_speculative(self):
        assert not can_speculate(self.StickyDisagree())

    def test_fallback_identical_to_scalar(self, conv, batch):
        scalar = ReliableConv2D(
            conv, self.StickyDisagree(), engine="scalar",
            on_persistent_failure="mark",
        ).forward(batch, filters=[0])
        vectorized = ReliableConv2D(
            conv, self.StickyDisagree(), engine="vectorized",
            on_persistent_failure="mark",
        ).forward(batch, filters=[0])
        _assert_bitwise(scalar, vectorized, "fallback")

    def test_fallback_abort_point_identical(self, conv, batch):
        with pytest.raises(PersistentFailureError) as scalar_exc:
            ReliableConv2D(
                conv, self.StickyDisagree(), engine="scalar"
            ).forward(batch)
        with pytest.raises(PersistentFailureError) as vector_exc:
            ReliableConv2D(
                conv, self.StickyDisagree(), engine="vectorized"
            ).forward(batch)
        assert (
            scalar_exc.value.operations_completed
            == vector_exc.value.operations_completed
        )
        assert (
            scalar_exc.value.errors_detected
            == vector_exc.value.errors_detected
        )

    def test_unit_without_array_form_not_speculative(self):
        class OffByOneUnit(PerfectExecutionUnit):
            def add(self, a, b):
                return a + b + 1.0

        assert as_array_unit(OffByOneUnit()) is None
        assert not can_speculate(RedundantOperator(OffByOneUnit()))


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        assert {"scalar", "vectorized"} <= set(engine_names())

    def test_unknown_engine_rejected(self, conv):
        with pytest.raises(ValueError, match="unknown engine"):
            ReliableConv2D(conv, "dmr", engine="warp-drive")

    def test_api_registry_view(self):
        from repro.api import ENGINES, RegistryError
        from repro.reliable.executor import _scalar_engine

        assert "vectorized" in ENGINES
        assert ENGINES.get("scalar") is _scalar_engine
        with pytest.raises(RegistryError):
            ENGINES.get("warp-drive")


class TestOperatorKindNormalization:
    """The satellite fix: instance and string constructor paths report
    the same canonical registry kind."""

    @pytest.mark.parametrize("operator, kind", [
        (PlainOperator(), "plain"),
        (RedundantOperator(), "dmr"),
        (TMROperator(), "tmr"),
    ])
    def test_instance_reports_registry_kind(self, conv, batch, operator, kind):
        _, report = ReliableConv2D(conv, operator).forward(
            batch, filters=[0]
        )
        assert report.operator_kind == kind

    def test_string_path_unchanged(self, conv, batch):
        _, report = ReliableConv2D(conv, "dmr").forward(batch, filters=[0])
        assert report.operator_kind == "dmr"

    def test_unregistered_subclass_falls_back_to_class_name(self, conv):
        class Bespoke(RedundantOperator):
            pass

        executor = ReliableConv2D(conv, Bespoke())
        assert executor._operator_kind == "Bespoke"
