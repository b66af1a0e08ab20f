"""Duplex core: devices, dispatch, co-processing, and the stage executor.

* :mod:`repro.core.device` — a device is an xPU, an optional PIM unit, and
  HBM capacity; factories build the paper's GPU, Duplex, Bank-PIM-Duplex and
  PIM-only (hetero) devices.
* :mod:`repro.core.system` — a system is devices + topology + policy: GPU,
  2xGPU, the heterogeneous system of Section III-B, Duplex, Duplex+PE and
  Duplex+PE+ET, and the Bank-PIM variant of Section VII-C.
* :mod:`repro.core.coprocessing` — the expert co-processing lookup table and
  greedy assignment (Section V-B), including memory-space granularity
  (Section V-C).
* :mod:`repro.core.executor` — turns one continuous-batching stage into
  latency and energy with a per-category breakdown.
"""

from repro.core.coprocessing import (
    ExpertAssignment,
    ExpertTimeLookup,
    SpaceGroupPlan,
    assign_experts,
    assign_from_times,
)
from repro.core.device import DeviceModel, bank_pim_duplex_device, duplex_device, gpu_device, pim_only_device
from repro.core.executor import StageExecutor, StageResult, StageWorkload
from repro.core.system import SystemConfig, SystemKind, default_topology

__all__ = [
    "DeviceModel",
    "ExpertAssignment",
    "ExpertTimeLookup",
    "SpaceGroupPlan",
    "StageExecutor",
    "StageResult",
    "StageWorkload",
    "SystemConfig",
    "SystemKind",
    "assign_experts",
    "assign_from_times",
    "bank_pim_duplex_device",
    "default_topology",
    "duplex_device",
    "gpu_device",
    "pim_only_device",
]
