"""HardHarvest hardware controller: request queues, QMs, VM state registers,
context memory, on-chip networks, and storage-cost accounting."""

from repro.hw.context import RequestContextMemory, SavedContext
from repro.hw.controller import HardHarvestController
from repro.hw.isa import CoreIsa, GrpcCompletionQueue, ThriftServerSocket
from repro.hw.noc import ControlTree, MeshNetwork
from repro.hw.queue_manager import HarvestMaskRegister, QueueManager
from repro.hw.request_queue import RequestQueue, Subqueue
from repro.hw.storage_cost import (
    StorageReport,
    compute_storage_report,
    qm_storage_bytes,
    rq_storage_bytes,
    shared_bit_bytes_per_core,
)
from repro.hw.vm_state import NAMED_REGISTERS, VmStateRegisterSet

__all__ = [
    "HardHarvestController",
    "CoreIsa",
    "GrpcCompletionQueue",
    "ThriftServerSocket",
    "QueueManager",
    "HarvestMaskRegister",
    "RequestQueue",
    "Subqueue",
    "VmStateRegisterSet",
    "NAMED_REGISTERS",
    "RequestContextMemory",
    "SavedContext",
    "MeshNetwork",
    "ControlTree",
    "StorageReport",
    "compute_storage_report",
    "rq_storage_bytes",
    "qm_storage_bytes",
    "shared_bit_bytes_per_core",
]
