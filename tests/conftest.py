"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import plan as plan_module
from repro.core.abm import ConvGeometry
from repro.core.specs import conv_spec, fc_spec
from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_conv_spec():
    """A 16->8 channel 3x3 convolution on a 10x10 input."""
    return conv_spec("small", 16, 8, kernel=3, in_rows=10, in_cols=10, padding=1)


@pytest.fixture
def small_fc_spec():
    return fc_spec("small_fc", 128, 32)


@pytest.fixture
def small_geometry() -> ConvGeometry:
    return ConvGeometry(kernel=3, stride=1, padding=1)


def sparse_weight_codes(
    rng: np.random.Generator,
    shape=(8, 16, 3, 3),
    density: float = 0.3,
    value_range: int = 8,
) -> np.ndarray:
    """Random sparse integer weights for ABM tests."""
    codes = rng.integers(-value_range, value_range + 1, size=shape)
    mask = rng.random(shape) < density
    return (codes * mask).astype(np.int64)


@pytest.fixture
def weight_codes(rng):
    return sparse_weight_codes(rng)


@pytest.fixture
def feature_codes(rng):
    return rng.integers(-128, 128, size=(16, 10, 10)).astype(np.int64)


@pytest.fixture
def tiny_architecture() -> Architecture:
    """A complete small CNN touching every layer kind the pipeline runs."""
    return Architecture(
        name="tiny",
        input_channels=3,
        input_rows=16,
        input_cols=16,
        defs=[
            ConvDef("conv1", 8, kernel=3, padding=1),
            ReLUDef("relu1"),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv2", 12, kernel=3, padding=1),
            ReLUDef("relu2"),
            PoolDef("pool2", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc3", 20),
            ReLUDef("relu3"),
            FCDef("fc4", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )


#: The layer plans' three datapaths by parametrisation id, with the
#: exactness limits each id lowers to zero and the sum dtype it must then
#: run on. ``sparse`` runs the production rule (float32 GEMM for inputs
#: that keep the sum bound below 2**24, as 8-bit pipelines do), ``float64``
#: disables the float32 rung, and ``fallback`` also disables the float64
#: one, forcing the int64 matmul.
DATAPATHS = {
    "sparse": ((), np.float32),
    "float64": (("FLOAT32_EXACT_LIMIT",), np.float64),
    "fallback": (("FLOAT32_EXACT_LIMIT", "FLOAT64_EXACT_LIMIT"), np.int64),
}
BACKENDS = list(DATAPATHS)


class Datapath:
    """The datapath a test body runs on, and the sum dtypes it saw."""

    def __init__(self, name):
        self.name = name
        self.expected = DATAPATHS[name][1]
        self.seen = []


@contextlib.contextmanager
def datapath(backend):
    """Run the body on one plan datapath (see ``DATAPATHS``).

    Records every dtype the plans' datapath rule picks and, once the body
    returns, asserts that it picked one and only ``expected`` (a body may
    change that when its inputs are too large for the float32 rung).
    """
    limits, _ = DATAPATHS[backend]
    saved = {name: getattr(plan_module, name) for name in limits}
    rule = plan_module.LayerPlan.sum_dtype
    state = Datapath(backend)

    def recording_rule(plan, *args, **kwargs):
        dtype = rule(plan, *args, **kwargs)
        state.seen.append(dtype)
        return dtype

    plan_module.LayerPlan.sum_dtype = recording_rule
    for name in limits:
        setattr(plan_module, name, 0)
    try:
        yield state
    finally:
        plan_module.LayerPlan.sum_dtype = rule
        for name, value in saved.items():
            setattr(plan_module, name, value)
    assert state.seen and set(state.seen) == {state.expected}, (
        backend,
        state.seen,
    )


@pytest.fixture(params=BACKENDS)
def exec_backend(request):
    """Run the test body under each layer-plan datapath (all three ids)."""
    with datapath(request.param) as state:
        yield state
