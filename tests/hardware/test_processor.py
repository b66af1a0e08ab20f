"""Tests for the roofline processing-unit model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hardware.processor import ProcessingUnit, UnitColumns, UnitKind
from repro.units import GB, TFLOPS


def make_unit(**overrides):
    params = dict(
        name="test-unit",
        kind=UnitKind.XPU,
        peak_flops=100 * TFLOPS,
        mem_bandwidth=1e12,
        compute_efficiency=1.0,
        launch_overhead_s=0.0,
        read_energy_pj_per_bit=4.0,
        write_energy_pj_per_bit=4.0,
        flop_energy_pj=1.0,
    )
    params.update(overrides)
    return ProcessingUnit(**params)


class TestRoofline:
    def test_memory_bound_op(self):
        unit = make_unit()
        # 1 GB at 1 TB/s = 1 ms; compute side is far faster.
        assert unit.op_time(flops=1e9, bytes_read=1 * GB) == pytest.approx(1e-3)

    def test_compute_bound_op(self):
        unit = make_unit()
        # 1e15 FLOP at 1e14 FLOP/s = 10 s.
        assert unit.op_time(flops=1e15, bytes_read=1) == pytest.approx(10.0)

    def test_ridge_point(self):
        unit = make_unit()
        assert unit.ridge_opb == pytest.approx(100.0)

    def test_efficiency_scales_compute_side(self):
        unit = make_unit(compute_efficiency=0.5)
        assert unit.effective_flops == pytest.approx(50 * TFLOPS)
        assert unit.ridge_opb == pytest.approx(50.0)

    def test_launch_overhead_added_once(self):
        unit = make_unit(launch_overhead_s=1e-6)
        assert unit.op_time(flops=0, bytes_read=1000) == pytest.approx(1e-9 + 1e-6)

    def test_zero_op_costs_nothing(self):
        unit = make_unit(launch_overhead_s=1e-6)
        assert unit.op_time(flops=0, bytes_read=0) == 0.0

    def test_writes_count_toward_memory_time(self):
        unit = make_unit()
        read_only = unit.op_time(flops=0, bytes_read=1 * GB)
        with_writes = unit.op_time(flops=0, bytes_read=1 * GB, bytes_written=1 * GB)
        assert with_writes == pytest.approx(2 * read_only)

    def test_negative_inputs_rejected(self):
        unit = make_unit()
        with pytest.raises(ConfigError):
            unit.op_time(flops=-1, bytes_read=0)

    @given(
        flops=st.floats(1e6, 1e15),
        nbytes=st.floats(1e3, 1e12),
        extra=st.floats(1.0, 100.0),
    )
    def test_time_monotone_in_work(self, flops, nbytes, extra):
        unit = make_unit()
        base = unit.op_time(flops, nbytes)
        assert unit.op_time(flops * extra, nbytes) >= base
        assert unit.op_time(flops, nbytes * extra) >= base


class TestEnergy:
    def test_read_energy(self):
        unit = make_unit(flop_energy_pj=0.0)
        # 1000 bytes * 8 bits * 4 pJ/b = 32 nJ.
        assert unit.op_energy(flops=0, bytes_read=1000) == pytest.approx(32e-9)

    def test_compute_energy(self):
        unit = make_unit(read_energy_pj_per_bit=0.0, write_energy_pj_per_bit=0.0)
        assert unit.op_energy(flops=1e9, bytes_read=0) == pytest.approx(1e-3)

    def test_energy_splits_sum_to_total(self):
        unit = make_unit()
        flops, br, bw = 1e9, 1e6, 1e5
        total = unit.op_energy(flops, br, bw)
        assert total == pytest.approx(unit.dram_energy(br, bw) + unit.compute_energy(flops))


class TestUtilization:
    def test_low_opb_means_low_utilization(self):
        unit = make_unit()
        # Op/B of 1 on a ridge-100 unit: ~1% utilization (Section III).
        util = unit.utilization(flops=1e9, bytes_read=1e9)
        assert util == pytest.approx(0.01, rel=0.01)

    def test_compute_bound_utilization_reaches_efficiency(self):
        unit = make_unit(compute_efficiency=0.7)
        util = unit.utilization(flops=1e15, bytes_read=1.0)
        assert util == pytest.approx(0.7, rel=0.01)

    def test_achieved_flops_never_exceeds_effective(self):
        unit = make_unit(compute_efficiency=0.8)
        for opb in (0.1, 1, 10, 100, 1000):
            achieved = unit.achieved_flops(flops=opb * 1e9, bytes_read=1e9)
            assert achieved <= unit.effective_flops * (1 + 1e-9)


class TestValidation:
    def test_rejects_zero_flops(self):
        with pytest.raises(ConfigError):
            make_unit(peak_flops=0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigError):
            make_unit(mem_bandwidth=0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigError):
            make_unit(compute_efficiency=1.5)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigError):
            make_unit(launch_overhead_s=-1)


class TestUnitColumns:
    def test_stacked_prices_equal_each_units_array_methods(self):
        # Two units with different rooflines, launch overheads and energy
        # coefficients; a zero-work operator among real ones.
        units = (
            make_unit(compute_efficiency=0.7, launch_overhead_s=2e-6),
            make_unit(
                name="pim", kind=UnitKind.LOGIC_PIM, peak_flops=8 * TFLOPS,
                mem_bandwidth=4e12, launch_overhead_s=5e-7, read_energy_pj_per_bit=1.5,
                write_energy_pj_per_bit=2.5, flop_energy_pj=0.4,
            ),
        )
        rng = np.random.default_rng(0)
        flops = rng.uniform(0.0, 1e12, 7)
        reads = rng.uniform(0.0, 1e9, 7)
        writes = rng.uniform(0.0, 1e8, 7)
        flops[3] = reads[3] = writes[3] = 0.0
        idle = (flops == 0) & (reads == 0) & (writes == 0)
        priced = UnitColumns.of(units).prices(flops, reads, writes, idle)
        assert priced.shape == (3, 2, 7)
        for row, unit in enumerate(units):
            assert (priced[0, row] == unit.op_times(flops, reads, writes)).all()
            assert (priced[1, row] == unit.dram_energies(reads, writes)).all()
            assert (priced[2, row] == unit.compute_energies(flops)).all()
            assert priced[0, row, 3] == 0.0
            # The array formulas equal the scalar methods, element by element.
            for k in range(7):
                assert priced[0, row, k] == unit.op_time(flops[k], reads[k], writes[k])
                assert priced[1, row, k] == unit.dram_energy(reads[k], writes[k])
                assert priced[2, row, k] == unit.compute_energy(flops[k])
