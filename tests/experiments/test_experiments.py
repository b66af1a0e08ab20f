"""Fast integration tests for the experiment modules.

Each experiment runs on a reduced grid (the benchmarks run the full grids);
these tests check the plumbing and the qualitative shapes survive the
reduction.
"""

import pytest

from repro.experiments import (
    area,
    fig4,
    fig5,
    fig8,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    table1,
)
from repro.experiments.presets import eval_systems, latency_limits, model_by_key
from repro.errors import ConfigError
from repro.serving.simulator import SimulationLimits

FAST = SimulationLimits(max_stages=120, warmup_stages=8)


class TestPresets:
    def test_eval_systems_for_moe_model(self):
        systems = eval_systems(model_by_key("mixtral"))
        assert set(systems) == {"GPU", "2xGPU", "Duplex", "Duplex+PE", "Duplex+PE+ET"}

    def test_eval_systems_for_dense_model(self):
        systems = eval_systems(model_by_key("llama3"))
        assert "Duplex+PE+ET" not in systems

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            model_by_key("gpt5")

    def test_latency_limits_scale_with_lout(self):
        assert latency_limits(2048).max_stages > latency_limits(512).max_stages


class TestTable1:
    def test_rows_and_formatting(self):
        rows = table1.run()
        assert len(rows) == 5
        text = table1.format_rows(rows)
        assert "Mixtral-47B" in text


class TestFig4:
    def test_breakdown_reduced_grid(self):
        rows = fig4.run_breakdown(batches=(32,), louts={"mixtral": (1024,), "glam": (1024,)})
        assert len(rows) == 4
        assert all(abs(sum(r.shares.values()) - 1.0) < 1e-6 for r in rows)
        assert fig4.format_breakdown(rows)

    def test_roofline_has_three_series(self):
        points = fig4.run_roofline(model_keys=("mixtral",))["mixtral"]
        labels = {p.label.split(" @ ")[0] for p in points}
        assert labels == {"FC", "Attention", "MoE"}
        assert fig4.format_roofline({"mixtral": points})


class TestFig5:
    def test_stage_ratio_reduced(self):
        rows = fig5.run_stage_ratio(pairs=((1024, 1024),), batches=(32,), limits=FAST)
        assert rows[0].decoding_only_ratio > 0.9

    def test_hetero_throughput_reduced(self):
        rows = fig5.run_hetero_throughput(pairs=((4096, 4096),), limits=FAST)
        assert rows[0].normalized < 1.0
        assert fig5.format_hetero_throughput(rows)


class TestFig8:
    def test_matches_paper_within_tolerance(self):
        study = fig8.run()
        assert fig8.crossover_opb(study) == 8
        assert fig8.format_rows(study)


class TestFig11:
    def test_single_config(self):
        rows = fig11.run(
            model_keys=("mixtral",),
            batches=(32,),
            pairs_by_model={"mixtral": ((1024, 1024),)},
            limits=FAST,
        )
        assert len(rows) == 1
        normalized = rows[0].normalized()
        assert normalized["Duplex+PE+ET"] > 2.0
        assert fig11.peak_speedup(rows) == normalized["Duplex+PE+ET"]
        assert fig11.format_rows(rows)


class TestFig12:
    def test_single_pair(self):
        rows = fig12.run(pairs=((512, 512),))
        reduction = fig12.median_tbt_reduction(rows)
        assert 0.3 < reduction < 0.8
        assert fig12.format_rows(rows)


class TestFig13:
    def test_two_rates(self):
        rows = fig13.run(qps_values=(4.0, 16.0), limits=FAST)
        assert len(rows) == 6
        assert fig13.format_rows(rows)

    def test_saturation_detection(self):
        # In a short window the backlog has not grown 10x yet; a softer
        # blowup factor still identifies the overloaded GPU.
        rows = fig13.run(qps_values=(4.0, 16.0),
                         limits=SimulationLimits(max_stages=400, warmup_stages=16))
        assert fig13.saturation_qps(rows, "GPU", blowup_factor=1.5) <= 16.0
        assert fig13.saturation_qps(rows, "2xGPU", blowup_factor=1.5) == float("inf")

    def test_scenario_override_sweeps_registered_traffic(self):
        # The QPS grid can sweep any registered scenario; each point
        # rescales the scenario's arrival process to the target rate.
        rows = fig13.run(
            qps_values=(6.0,), max_batch=32, limits=FAST, scenario="bursty-chat",
        )
        assert len(rows) == 3
        assert all(r.qps == 6.0 for r in rows)
        assert all(r.throughput > 0 for r in rows)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            fig13.run(qps_values=(6.0,), limits=FAST, scenario="no-such-scenario")


class TestFig14:
    def test_opt_prefers_bank_pim(self):
        rows = fig14.run(model_keys=("opt",), batches=(32,), limits=FAST)
        assert fig14.mean_duplex_advantage(rows, "OPT-66B") < 1.05
        assert fig14.format_rows(rows)


class TestFig15:
    def test_energy_savings_positive(self):
        rows = fig15.run(
            model_keys=("mixtral",),
            batches=(32,),
            pairs_by_model={"mixtral": ((1024, 1024),)},
            limits=FAST,
        )
        assert fig15.energy_savings(rows, "Mixtral-47B") > 0.1
        assert fig15.format_rows(rows)

    def test_component_folding_covers_everything(self):
        rows = fig15.run(
            model_keys=("mixtral",),
            batches=(32,),
            pairs_by_model={"mixtral": ((512, 512),)},
            limits=FAST,
        )
        for row in rows:
            assert row.total > 0
            assert set(row.joules_per_token) == set(fig15.COMPONENTS)


class TestFig16:
    def test_single_pair(self):
        rows = fig16.run(pairs=((1024, 1024),), batch=32, limits=FAST)
        assert rows[0].split_throughput_ratio < 1.0
        assert fig16.format_rows(rows)


class TestArea:
    def test_report_numbers(self):
        report = area.run()
        assert report.total_mm2 == pytest.approx(17.80, abs=0.05)
        assert area.format_report(report)
