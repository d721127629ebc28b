"""Analytical latency / energy / utilization model.

Roofline-style: compute cycles from bit-serial MAC throughput and tiling
edge effects, DRAM cycles from dataflow-dependent tile reuse, overlapped
when the schedule double-buffers.  This is the same modeling methodology
as the group's DNN-Chip Predictor (ICASSP'20), reduced to GEMMs.
"""

from __future__ import annotations

import dataclasses
import math

from .accelerator import AcceleratorSpec
from .scheduling import Schedule
from .workload import GEMMWorkload


@dataclasses.dataclass(frozen=True)
class CostReport:
    """Modeled execution cost of one GEMM under one schedule."""

    cycles: float
    compute_cycles: float
    dram_cycles: float
    dram_bytes: float
    sram_bytes: float
    energy_pj: float
    utilization: float  # ideal compute cycles / achieved latency cycles

    def latency_seconds(self, accel: AcceleratorSpec) -> float:
        return self.cycles / accel.frequency_hz


def gemm_cost(
    workload: GEMMWorkload, schedule: Schedule, accel: AcceleratorSpec
) -> CostReport:
    """Price ``workload`` mapped by ``schedule`` on ``accel``."""
    if not schedule.fits(accel, workload.bits):
        raise ValueError("schedule working set exceeds SRAM")

    tiles_m = math.ceil(workload.m / schedule.tile_m)
    tiles_n = math.ceil(workload.n / schedule.tile_n)
    tiles_k = math.ceil(workload.k / schedule.tile_k)

    # --- compute ------------------------------------------------------
    bit_factor = accel.bit_cycles(workload.bits)
    sparsity_keep = 1.0 - workload.sparsity * accel.sparse_efficiency
    passes = math.ceil(schedule.tile_m / accel.pe_rows) * math.ceil(
        schedule.tile_n / accel.pe_cols
    )
    cycles_per_tile = passes * schedule.tile_k * bit_factor
    compute_cycles = tiles_m * tiles_n * tiles_k * cycles_per_tile * sparsity_keep

    # --- DRAM traffic (dataflow-dependent tile reuse) ------------------
    operands = workload.operand_bytes()
    if schedule.dataflow == "weight_stationary":
        traffic = (
            operands["b"]
            + operands["a"] * tiles_n
            + operands["c"] * max(2 * tiles_k - 1, 1)
        )
    elif schedule.dataflow == "input_stationary":
        traffic = (
            operands["a"]
            + operands["b"] * tiles_m
            + operands["c"] * max(2 * tiles_k - 1, 1)
        )
    else:  # output_stationary: C stays on-chip until fully accumulated
        traffic = (
            operands["c"]
            + operands["a"] * tiles_n
            + operands["b"] * tiles_m
        )
    dram_cycles = traffic / accel.dram_bytes_per_cycle

    # --- latency --------------------------------------------------------
    if schedule.double_buffer:
        cycles = max(compute_cycles, dram_cycles)
    else:
        cycles = compute_cycles + dram_cycles

    # --- energy ---------------------------------------------------------
    effective_macs = workload.macs * sparsity_keep
    sram_bytes = effective_macs * 2 * workload.bits / 8.0 + operands["c"]
    energy = (
        effective_macs * accel.energy_per_mac_pj * bit_factor
        + sram_bytes * accel.energy_per_sram_byte_pj
        + traffic * accel.energy_per_dram_byte_pj
    )

    ideal_cycles = (
        workload.macs * sparsity_keep * bit_factor / accel.macs_per_cycle
    )
    utilization = min(ideal_cycles / cycles, 1.0) if cycles > 0 else 0.0
    return CostReport(
        cycles=float(cycles),
        compute_cycles=float(compute_cycles),
        dram_cycles=float(dram_cycles),
        dram_bytes=float(traffic),
        sram_bytes=float(sram_bytes),
        energy_pj=float(energy),
        utilization=float(utilization),
    )


def memoized_gemm_cost(
    workload: GEMMWorkload,
    schedule: Schedule,
    accel: AcceleratorSpec,
    cache=None,
) -> CostReport:
    """:func:`gemm_cost` through an optional ``repro.parallel.EvalCache``.

    ``gemm_cost`` is pure, so the memoized result is exactly the direct
    one (property-tested in ``tests/hw/test_cost_cache_properties.py``).
    The key ignores the workload's ``name``/``phase`` labels — they don't
    enter the pricing — so identically-shaped GEMMs share an entry.
    """
    if cache is None:
        return gemm_cost(workload, schedule, accel)
    parts = (
        "hw/gemm_cost",
        (workload.m, workload.k, workload.n, workload.bits, workload.sparsity),
        schedule,
        accel,
    )
    return cache.get_or_compute(
        parts,
        lambda: gemm_cost(workload, schedule, accel),
        encode=dataclasses.asdict,
        decode=lambda payload: CostReport(**payload),
    )


def objective_value(report: CostReport, objective: str = "latency") -> float:
    """Scalarize a cost report (latency | energy | edp)."""
    if objective == "latency":
        return report.cycles
    if objective == "energy":
        return report.energy_pj
    if objective == "edp":
        return report.cycles * report.energy_pj
    raise ValueError(f"unknown objective {objective!r}")
