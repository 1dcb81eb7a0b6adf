"""Head-schedule loop tests (Algorithm 1 lines 7–20)."""

import numpy as np
import pytest

from repro.edge.device import DeviceModel
from repro.models.vit import vit_base_config, ViTConfig
from repro.profiling import size_mb, vit_param_count
from repro.splitting.class_assignment import balanced_class_partition
from repro.splitting.schedule import (
    ScheduleInfeasible,
    footprint,
    plan_head_schedule,
    submodel_config,
)

MB = 2 ** 20


def pi_fleet(n, memory_gb=4.0, energy=1e12):
    return [DeviceModel(device_id=f"pi-{i}",
                        memory_bytes=int(memory_gb * 2 ** 30),
                        energy_flops=energy) for i in range(n)]


class TestSubmodelConfig:
    def test_half_pruned_base_is_small_shaped(self):
        cfg = submodel_config(vit_base_config(num_classes=10), hp=6,
                              num_classes=5)
        assert cfg.embed_dim == 384
        assert cfg.resolved_mlp_hidden == 1536
        assert cfg.num_classes == 5

    def test_footprint_consistent_with_analytics(self):
        sub = footprint(vit_base_config(num_classes=10), 0, hp=10,
                        classes=[3])
        config = ViTConfig.from_dict(sub.model_config)
        assert sub.size_bytes == vit_param_count(config) * 4
        assert sub.flops_per_sample > 0
        assert (sub.model_id, sub.classes, sub.hp) == ("submodel-0", (3,), 10)
        assert sub.feature_dim == config.embed_dim


class TestScheduleLoop:
    def base(self):
        return vit_base_config(num_classes=10)

    def groups(self, n):
        return balanced_class_partition(10, n, np.random.default_rng(0))

    def test_generous_budget_keeps_initial_hp(self):
        schedule = plan_head_schedule(self.base(), self.groups(2), pi_fleet(2),
                                      memory_budget_bytes=1000 * MB,
                                      num_samples=1)
        assert [m.hp for m in schedule.submodels] == [6, 6]  # h/2

    def test_paper_budget_n2(self):
        # 180 MB fits two half-pruned sub-models (2 x ~82 MB).
        schedule = plan_head_schedule(self.base(), self.groups(2), pi_fleet(2),
                                      memory_budget_bytes=180 * MB,
                                      num_samples=1)
        assert [m.hp for m in schedule.submodels] == [6, 6]
        assert sum(f.size_bytes for f in schedule.submodels) <= 180 * MB

    def test_budget_equal_to_the_total_fits_exactly(self):
        """Alg. 1 stops once the total is *within* the budget: a budget of
        exactly the h/2 fleet's bytes keeps h/2, one byte less does not."""
        base, groups = self.base(), self.groups(2)
        total = sum(footprint(base, i, base.num_heads // 2, g).size_bytes
                    for i, g in enumerate(groups))
        exact = plan_head_schedule(base, groups, pi_fleet(2),
                                   memory_budget_bytes=total, num_samples=1)
        assert [m.hp for m in exact.submodels] == [6, 6]
        short = plan_head_schedule(base, groups, pi_fleet(2),
                                   memory_budget_bytes=total - 1,
                                   num_samples=1)
        assert all(m.hp == 7 for m in short.submodels)

    def test_paper_budget_n3_prunes_more(self):
        schedule = plan_head_schedule(self.base(), self.groups(3), pi_fleet(3),
                                      memory_budget_bytes=180 * MB,
                                      num_samples=1)
        assert all(m.hp > 6 for m in schedule.submodels)
        assert sum(f.size_bytes for f in schedule.submodels) <= 180 * MB

    def test_tight_budget_forces_aggressive_pruning(self):
        schedule = plan_head_schedule(self.base(), self.groups(10),
                                      pi_fleet(10),
                                      memory_budget_bytes=100 * MB,
                                      num_samples=1)
        assert sum(f.size_bytes for f in schedule.submodels) <= 100 * MB
        assert len(schedule.submodels) == 10

    def test_impossible_budget_raises(self):
        with pytest.raises(ScheduleInfeasible):
            plan_head_schedule(self.base(), self.groups(10), pi_fleet(10),
                               memory_budget_bytes=1 * MB, num_samples=1)

    def test_device_memory_constraint_respected(self):
        # Devices with only 20 MB RAM force sub-models below 20 MB even
        # though the fleet budget is loose.
        schedule = plan_head_schedule(self.base(), self.groups(5),
                                      pi_fleet(5, memory_gb=20 / 1024),
                                      memory_budget_bytes=1000 * MB,
                                      num_samples=1)
        assert all(f.size_bytes <= 20 * MB for f in schedule.submodels)

    def test_energy_constraint_respected(self):
        # Per-device energy of 3 GFLOPs rules out the 4.25 G half-pruned
        # sub-models at N=2.
        schedule = plan_head_schedule(self.base(), self.groups(2),
                                      pi_fleet(2, energy=3e9),
                                      memory_budget_bytes=1000 * MB,
                                      num_samples=1)
        assert all(f.flops_per_sample <= 3e9 for f in schedule.submodels)

    def test_plan_assigns_every_submodel(self):
        schedule = plan_head_schedule(self.base(), self.groups(5), pi_fleet(5),
                                      memory_budget_bytes=180 * MB,
                                      num_samples=1)
        assert len(schedule.plan.mapping) == 5

    def test_paper_n10_submodel_size(self):
        # At the paper's 180 MB budget and N=10, sub-models land near the
        # reported 9.60 MB (we allow the loop to stop one notch earlier).
        schedule = plan_head_schedule(self.base(), self.groups(10),
                                      pi_fleet(10),
                                      memory_budget_bytes=180 * MB,
                                      num_samples=1)
        sizes_mb = [f.size_bytes / MB for f in schedule.submodels]
        assert max(sizes_mb) < 25


class TestInfeasibleMessages:
    """The two terminal failures must be distinguishable (bugfix)."""

    def test_budget_unreachable_names_the_budget(self):
        with pytest.raises(ScheduleInfeasible, match="budget .* unreachable"):
            plan_head_schedule(vit_base_config(num_classes=10),
                               balanced_class_partition(10, 10),
                               pi_fleet(10),
                               memory_budget_bytes=1 * MB, num_samples=1)

    def test_assignment_failure_names_the_placement(self):
        # Fleet budget is huge (the total trivially fits) but each
        # device has almost no energy, so greedy assignment can never
        # place anything: the message must blame placement, not budget.
        devices = [DeviceModel(device_id=f"pi-{i}",
                               memory_bytes=4 * 2 ** 30,
                               energy_flops=1.0)
                   for i in range(3)]
        with pytest.raises(ScheduleInfeasible,
                           match="assignment failed at maximum pruning"):
            plan_head_schedule(vit_base_config(num_classes=10),
                               balanced_class_partition(10, 3),
                               devices,
                               memory_budget_bytes=100_000 * MB,
                               num_samples=1)
