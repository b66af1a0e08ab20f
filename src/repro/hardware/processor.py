"""The roofline execution model shared by every processing unit.

A processing unit is characterised by a peak compute rate, an effective
memory bandwidth, and energy coefficients for its datapath.  Operator time
is the classic roofline:

    time = max(flops / effective_flops, bytes / bandwidth) + launch_overhead

The ridge point ``effective_flops / bandwidth`` is the Op/B at which the
unit transitions from memory- to compute-bound — the quantity the whole
paper argues about (xPU ridge in the hundreds, Logic-PIM ridge at 8,
Bank-PIM ridge at 1).

The ``op_times`` / ``dram_energies`` / ``compute_energies`` array variants
evaluate whole batches of operators (one element per operator) in a single
numpy pass.  They apply the scalar formulas elementwise in the same
floating-point operation order, so each element is bit-identical to the
corresponding scalar call — the serving stack's exact pricing path relies
on that equivalence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.units import PJ


class UnitKind(enum.Enum):
    """The four processing-unit microarchitectures the paper compares."""

    XPU = "xpu"
    LOGIC_PIM = "logic_pim"
    BANK_PIM = "bank_pim"
    BANKGROUP_PIM = "bankgroup_pim"


@dataclass(frozen=True)
class ProcessingUnit:
    """One processing unit with a roofline timing and energy model.

    Attributes:
        name: human-readable label ("xPU (H100)", "Logic-PIM x5", ...).
        kind: microarchitecture family.
        peak_flops: peak FP16 FLOP/s of the unit.
        mem_bandwidth: effective bytes/s the unit can stream from DRAM.
        compute_efficiency: fraction of peak a realistic GEMM sustains.
        launch_overhead_s: fixed per-operator cost (kernel launch /
            PIM-instruction dispatch).
        read_energy_pj_per_bit: DRAM read energy on this unit's datapath.
        write_energy_pj_per_bit: DRAM write energy on this unit's datapath.
        flop_energy_pj: energy per FLOP including local data movement.
    """

    name: str
    kind: UnitKind
    peak_flops: float
    mem_bandwidth: float
    compute_efficiency: float = 1.0
    launch_overhead_s: float = 0.0
    read_energy_pj_per_bit: float = 0.0
    write_energy_pj_per_bit: float = 0.0
    flop_energy_pj: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ConfigError(f"{self.name}: peak_flops must be positive")
        if self.mem_bandwidth <= 0:
            raise ConfigError(f"{self.name}: mem_bandwidth must be positive")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ConfigError(f"{self.name}: compute_efficiency must be in (0, 1]")
        if self.launch_overhead_s < 0:
            raise ConfigError(f"{self.name}: launch_overhead_s must be >= 0")

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    @property
    def effective_flops(self) -> float:
        """Sustained FLOP/s for dense GEMM-like work."""
        return self.peak_flops * self.compute_efficiency

    @property
    def ridge_opb(self) -> float:
        """Op/B at which the unit becomes compute-bound."""
        return self.effective_flops / self.mem_bandwidth

    def compute_time(self, flops: float) -> float:
        """Compute-side time for ``flops`` (no memory term, no overhead)."""
        return flops / self.effective_flops

    def memory_time(self, nbytes: float) -> float:
        """Memory-side time for ``nbytes`` (no compute term, no overhead)."""
        return nbytes / self.mem_bandwidth

    def op_time(self, flops: float, bytes_read: float, bytes_written: float = 0.0) -> float:
        """Roofline time for one operator, including the launch overhead.

        Args:
            flops: floating-point operations of the operator.
            bytes_read: DRAM bytes the operator must stream in.
            bytes_written: DRAM bytes the operator writes back.
        """
        if flops < 0 or bytes_read < 0 or bytes_written < 0:
            raise ConfigError("operator flops/bytes must be non-negative")
        if flops == 0 and bytes_read == 0 and bytes_written == 0:
            return 0.0
        busy = max(self.compute_time(flops), self.memory_time(bytes_read + bytes_written))
        return busy + self.launch_overhead_s

    def op_times(
        self,
        flops: np.ndarray,
        bytes_read: np.ndarray,
        bytes_written: np.ndarray,
        *,
        zero_mask: np.ndarray | None = None,
        validate: bool = True,
    ) -> np.ndarray:
        """Roofline times for a batch of operators (elementwise :meth:`op_time`).

        Each element is bit-identical to the scalar call on the same
        operands; zero-work operators (all three inputs zero) cost exactly
        0.0, launch overhead included.

        Args:
            flops: per-operator floating-point operations.
            bytes_read: per-operator DRAM bytes streamed in.
            bytes_written: per-operator DRAM bytes written back.
            zero_mask: precomputed zero-work mask, if the caller has one
                (e.g. the expert price tables' ``tokens == 0``).
            validate: skip the non-negativity checks when the caller
                already guarantees them (per-stage hot paths).
        """
        if validate and (
            (flops < 0).any() or (bytes_read < 0).any() or (bytes_written < 0).any()
        ):
            raise ConfigError("operator flops/bytes must be non-negative")
        busy = np.maximum(
            flops / self.effective_flops, (bytes_read + bytes_written) / self.mem_bandwidth
        )
        times = busy + self.launch_overhead_s
        if zero_mask is None:
            zero_mask = (flops == 0) & (bytes_read == 0) & (bytes_written == 0)
        if zero_mask.any():
            times[zero_mask] = 0.0
        return times

    # ------------------------------------------------------------------
    # energy
    # ------------------------------------------------------------------
    def op_energy(self, flops: float, bytes_read: float, bytes_written: float = 0.0) -> float:
        """Energy (J) for one operator: DRAM traffic plus compute."""
        dram = (
            bytes_read * 8.0 * self.read_energy_pj_per_bit
            + bytes_written * 8.0 * self.write_energy_pj_per_bit
        ) * PJ
        compute = flops * self.flop_energy_pj * PJ
        return dram + compute

    def dram_energy(self, bytes_read: float, bytes_written: float = 0.0) -> float:
        """DRAM-traffic energy (J) alone — used for breakdown reporting."""
        return (
            bytes_read * 8.0 * self.read_energy_pj_per_bit
            + bytes_written * 8.0 * self.write_energy_pj_per_bit
        ) * PJ

    def compute_energy(self, flops: float) -> float:
        """Compute energy (J) alone — used for breakdown reporting."""
        return flops * self.flop_energy_pj * PJ

    def dram_energies(self, bytes_read: np.ndarray, bytes_written: np.ndarray) -> np.ndarray:
        """DRAM-traffic energies for a batch of operators (elementwise)."""
        return (
            bytes_read * 8.0 * self.read_energy_pj_per_bit
            + bytes_written * 8.0 * self.write_energy_pj_per_bit
        ) * PJ

    def compute_energies(self, flops: np.ndarray) -> np.ndarray:
        """Compute energies for a batch of operators (elementwise)."""
        return flops * self.flop_energy_pj * PJ

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def achieved_flops(self, flops: float, bytes_read: float, bytes_written: float = 0.0) -> float:
        """FLOP/s actually delivered for an operator (for roofline plots)."""
        time = self.op_time(flops, bytes_read, bytes_written)
        if time <= 0:
            return 0.0
        return flops / time

    def utilization(self, flops: float, bytes_read: float, bytes_written: float = 0.0) -> float:
        """Fraction of peak compute an operator achieves (Section III)."""
        return self.achieved_flops(flops, bytes_read, bytes_written) / self.peak_flops
