"""LRU cache of deployed models.

Deployment is the expensive step of the serving path: it re-walks the
encoded layers, checks buffer fits and serializes the weight blob
(:func:`repro.deploy.deploy`). A serving frontend that flips between a
handful of models should pay that once per (pipeline, configuration,
device), the way an OpenCL host caches compiled kernels per device.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.specs import LayerSpec
from ..deploy import DeployedModel, deploy
from ..hw.config import AcceleratorConfig
from ..hw.device import STRATIX_V_GXA7, FPGADevice
from ..pipeline import QuantizedPipeline
from ..telemetry.caches import BoundedCache


class DeploymentCache(BoundedCache):
    """LRU cache mapping (pipeline, config, device) to a deployed model.

    Entries are scoped to the pipeline's identity and keyed on its
    quantization token, so two pipelines of one architecture never share
    a deployment and re-quantizing a pipeline forces a redeploy. Each
    instance registers itself as the ``serve.deploy`` telemetry family;
    the most recently constructed cache wins the name.
    """

    def __init__(self, capacity: int = 4) -> None:
        super().__init__("serve.deploy", capacity)

    def get_or_deploy(
        self,
        pipeline: QuantizedPipeline,
        specs: Sequence[LayerSpec],
        config: Optional[AcceleratorConfig] = None,
        device: FPGADevice = STRATIX_V_GXA7,
    ) -> DeployedModel:
        """A deployed model for the triple, re-encoding only on a miss.

        ``config=None`` means "let the DSE flow choose"; that choice depends
        only on the workload and device, so ``None`` is itself a stable key.
        """
        return self.get_or_create(
            (pipeline.quantization_token, config, device.name),
            lambda: deploy(pipeline, specs, config=config, device=device),
            owner=pipeline,
        )
