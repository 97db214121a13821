"""Baseline convolution schemes and published accelerators.

Each scheme has analytic op counts, a cycle and fabric model, and a
single-call functional baseline checked against direct convolution.
Importing this package registers every built-in :class:`SchemeModel`
(``sdconv``, ``fdconv``, ``spconv``, ``winograd2``, ``winograd4``,
``spectral``) with the registry in :mod:`repro.core.schemes`; the ``abm``
model registers with core itself.
"""

from .fdconv import DEFAULT_OVERHEAD, DEFAULT_TILE, FDConvModel, OaAModel, fdconv2d
from .published import PublishedAccelerator, get_baseline, published_accelerators
from .sdconv import SDConvModel, SDConvResult, sdconv2d, sdconv_ops
from .spconv import SpConvModel, SpConvResult, spconv2d, spconv_ops
from .spectral import (
    SpectralConvResult,
    SpectralModel,
    spectral_conv2d,
    spectral_ops,
)
from .winograd import (
    WinogradConvResult,
    WinogradModel,
    winograd_conv2d,
    winograd_ops,
    winograd_reduction,
)

__all__ = [
    "OaAModel",
    "FDConvModel",
    "fdconv2d",
    "DEFAULT_TILE",
    "DEFAULT_OVERHEAD",
    "PublishedAccelerator",
    "published_accelerators",
    "get_baseline",
    "SDConvModel",
    "SDConvResult",
    "sdconv2d",
    "sdconv_ops",
    "SpConvModel",
    "SpConvResult",
    "spconv2d",
    "spconv_ops",
    "SpectralConvResult",
    "SpectralModel",
    "spectral_conv2d",
    "spectral_ops",
    "WinogradConvResult",
    "WinogradModel",
    "winograd_conv2d",
    "winograd_ops",
    "winograd_reduction",
]
