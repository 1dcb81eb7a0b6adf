"""Edge-device substrate: calibrated device models, network models, a
discrete-event simulator, and process-based device emulation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".codec": ("CODECS", "EncodedFeatures", "FeatureCodec", "get_codec"),
    ".device": ("DeviceModel", "JOULES_PER_MAC", "PI4B_ENERGY_FLOPS",
                "PI4B_MACS_PER_SECOND", "PI4B_MEMORY_BYTES",
                "make_fleet", "raspberry_pi_4b"),
    ".network": ("LinkModel", "RAW_IMAGE_BYTES",
                 "StarTopology", "TC_CAP_BPS", "communication_reduction",
                 "tc_capped_link", "uniform_star"),
    ".runtime": ("EdgeCluster", "InferenceTiming", "MODEL_KINDS",
                 "WorkerFailure", "WorkerSpec"),
    ".transport": ("InProcessTransport", "MultiprocessTransport",
                   "TRANSPORTS", "TcpTransport", "Transport", "WorkerHandle",
                   "get_transport"),
    ".simulator": ("DeploymentSpec", "ENGINES", "SimulationResult",
                   "SubModelProfile", "energy_report", "simulate_inference",
                   "utilization_report"),
})
