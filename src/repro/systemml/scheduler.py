"""Cost-based CPU/GPU operator placement (the paper's future-work cost model).

For every operator the scheduler compares the device-kernel estimate plus any
transfers the memory manager would have to perform against the host estimate,
and places the operator where the total is smaller.  This is the first of the
three SystemML integration components the paper describes (cost model,
memory manager, GPU kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.cpu import CpuCostModel
from .memmanager import GpuMemoryManager


@dataclass
class PlacementDecision:
    """Outcome of one scheduling query."""

    op: str
    target: str                  # "gpu" or "cpu"
    gpu_kernel_ms: float
    cpu_ms: float
    transfer_ms: float

    @property
    def gpu_total_ms(self) -> float:
        return self.gpu_kernel_ms + self.transfer_ms


@dataclass
class HybridScheduler:
    """Per-operator placement against a shared memory manager.

    ``reuse_horizon`` amortizes one-time staging costs over the expected
    number of future uses of the operand — the paper's central Table-5
    observation that iterative ML algorithms amortize the host-to-device
    transfer.  A horizon of 1 is the greedy scheduler (each statement pays
    the full upload), which systematically strands iterative workloads on
    the CPU.
    """

    memmgr: GpuMemoryManager
    cpu: CpuCostModel = field(default_factory=CpuCostModel)
    #: bias > 1 favours the CPU (models launch/JNI risk aversion)
    gpu_penalty: float = 1.0
    #: expected future uses of a staged operand (amortizes uploads)
    reuse_horizon: float = 1.0
    decisions: list[PlacementDecision] = field(default_factory=list)

    def estimate_transfer_ms(self, operand_keys: list[str]) -> float:
        """Upload cost for operands not currently resident and current."""
        total = 0.0
        for key in operand_keys:
            b = self.memmgr.blocks.get(key)
            if b is None:
                raise KeyError(f"operand {key!r} not registered")
            if not b.on_device or b.device_dirty:
                total += self.memmgr.transfer.h2d_ms(
                    b.nbytes, via_jni=self.memmgr.via_jni,
                    convert=b.needs_conversion and not b.on_device)
        return total

    def decide(self, op: str, operand_keys: list[str],
               gpu_kernel_ms: float, cpu_ms: float) -> PlacementDecision:
        """Pick a target; on GPU, actually stage the operands (charged)."""
        transfer_ms = self.estimate_transfer_ms(operand_keys)
        amortized = transfer_ms / max(1.0, self.reuse_horizon)
        gpu_total = (gpu_kernel_ms + amortized) * self.gpu_penalty
        target = "gpu" if gpu_total < cpu_ms else "cpu"
        d = PlacementDecision(op, target, gpu_kernel_ms, cpu_ms, transfer_ms)
        self.decisions.append(d)
        if target == "gpu":
            for key in operand_keys:
                self.memmgr.request(key)
        return d

    @property
    def gpu_fraction(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(d.target == "gpu" for d in self.decisions) \
            / len(self.decisions)
