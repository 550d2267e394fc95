"""Multi-scale computing networks: one substrate, four architectures.

Nodes and edges carry architecture-specific state; fast dynamics
evaluate the network function, a slow adaptation algorithm rewrites the
adjustable state, and an optional third scale searches over the
adaptation's own parameters. Includes a feedforward neural network, an
ant colony on tour problems, a particle swarm, elementary cellular
automata, trace-information analysis, and a config-driven CLI harness.
"""

from .core import (
    Architecture,
    ComputingNetwork,
    EdgeState,
    NodeState,
    RunRecord,
    ScaleSchedule,
    UpdateMode,
    fast_step,
    run,
    slow_step,
)
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
    "Architecture",
    "CnError",
    "ComputingNetwork",
    "ConfigurationError",
    "DeadEndError",
    "EdgeState",
    "MalformedInstanceError",
    "NodeState",
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
