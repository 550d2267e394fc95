"""Multi-scale computing networks: one substrate, four architectures.

Each architecture is a ComputingNetwork: it keeps its state in arrays
over a graph of nodes and edges; fast dynamics evaluate the network
function, a slow adaptation algorithm rewrites the adjustable state,
and an optional third scale searches over the adaptation's own
parameters. Includes a feedforward neural network, an
ant colony on tour problems, a particle swarm, elementary cellular
automata, trace-information analysis, and a config-driven CLI harness.
"""

from .core import (
    ComputingNetwork,
    RunRecord,
    ScaleSchedule,
    fast_step,
    run,
    slow_step,
)
from .eca import UpdateMode
from .errors import (
    CnError,
    ConfigurationError,
    DeadEndError,
    MalformedInstanceError,
    NumericDivergenceError,
    RecordIoError,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "CnError",
    "ComputingNetwork",
    "ConfigurationError",
    "DeadEndError",
    "MalformedInstanceError",
    "NumericDivergenceError",
    "RecordIoError",
    "RngStream",
    "RunRecord",
    "ScaleSchedule",
    "UpdateMode",
    "fast_step",
    "run",
    "slow_step",
    "__version__",
]
