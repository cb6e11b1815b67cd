"""Discrete-event datacenter simulator substrate.

Provides the event loop (:class:`~repro.cluster.events.Simulator`), the
container/resource model, bandwidth-limited network and disk models, the
eviction-free storage services, and the resource manager that drives the
eviction schedule — everything the paper's EC2/YARN testbed provided.
"""

from repro.cluster.events import Simulator
from repro.cluster.manager import (ContainerLease, LeasePool,
                                   ResourceManager, TransientPool)
from repro.cluster.network import (ContainerEndpoint, DiskModel, FifoPort,
                                   InfiniteEndpoint, NetworkModel,
                                   TransferResult)
from repro.cluster.resources import (Container, ContainerKind, NodeSpec,
                                     RESERVED_NODE, TRANSIENT_NODE, GB, MB,
                                     reserved_container, transient_container)
from repro.cluster.storage import InputStore, StableStore

__all__ = [
    "Container", "ContainerEndpoint", "ContainerKind", "ContainerLease",
    "DiskModel",
    "FifoPort", "GB", "InfiniteEndpoint", "InputStore",
    "LeasePool", "MB",
    "NetworkModel", "NodeSpec", "RESERVED_NODE", "ResourceManager",
    "TransientPool",
    "Simulator", "StableStore", "TRANSIENT_NODE", "TransferResult",
    "reserved_container", "transient_container",
]
