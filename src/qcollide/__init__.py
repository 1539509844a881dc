"""qcollide: collision-model open-quantum-system simulator with quantum-memory
and non-Markovianity diagnostics, a native-gate transpiler, and shot-based
tomography with readout mitigation."""

from . import channel, circuit, collision, entangle, nonmarkov, noisytomo, pipeline, qmat

__all__ = [
    "qmat",
    "channel",
    "collision",
    "entangle",
    "nonmarkov",
    "circuit",
    "noisytomo",
    "pipeline",
]

__version__ = "0.1.0"
