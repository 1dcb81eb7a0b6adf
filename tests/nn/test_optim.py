"""Optimizer and schedule tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn.optim import Adam, DecayingLR, clip_grad_norm


def quadratic_param(value=5.0):
    return nn.Parameter(np.array([value], dtype=np.float32))


def step_quadratic(opt, param, steps):
    for _ in range(steps):
        loss = (param * param).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return float(param.data[0])


class TestAdam:
    def test_skips_params_without_grad(self):
        p = quadratic_param()
        Adam([p], lr=0.1).step()  # no backward called; should not crash
        assert p.data[0] == pytest.approx(5.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_minimizes_quadratic(self):
        p = quadratic_param()
        final = step_quadratic(Adam([p], lr=0.5), p, 200)
        assert abs(final) < 5e-2

    def test_first_step_size_is_lr(self):
        # With bias correction, |first step| == lr regardless of grad scale.
        p = quadratic_param(100.0)
        opt = Adam([p], lr=0.1)
        loss = (p * p).sum()
        loss.backward()
        opt.step()
        assert p.data[0] == pytest.approx(100.0 - 0.1, abs=1e-4)

    def test_trains_small_net_to_fit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3)).astype(np.float32)
        y = (x.sum(axis=1) > 0).astype(np.int64)
        model = nn.Sequential(nn.Linear(3, 16), nn.ReLU(), nn.Linear(16, 2))
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(100):
            loss = nn.cross_entropy(model(nn.Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert nn.accuracy(model(nn.Tensor(x)), y) > 0.95


class TestSchedulesAndClipping:
    def test_decaying_lr(self):
        p = quadratic_param()
        opt = Adam([p], lr=1.0)
        sched = DecayingLR(opt, decay=0.5)
        sched.step()
        assert opt.lr == pytest.approx(0.5)
        sched.step()
        assert opt.lr == pytest.approx(0.25)

    def test_decaying_lr_floor(self):
        opt = Adam([quadratic_param()], lr=1e-5)
        sched = DecayingLR(opt, decay=0.1)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(1e-6)

    def test_clip_grad_norm_scales(self):
        p = nn.Parameter(np.array([0.0, 0.0], dtype=np.float32))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)  # norm 5
        total = clip_grad_norm([p], max_norm=1.0)
        assert total == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_clip_grad_norm_noop_below_threshold(self):
        p = nn.Parameter(np.array([0.3], dtype=np.float32))
        p.grad = np.array([0.3], dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        assert p.grad[0] == pytest.approx(0.3)


class TestSharedParameters:
    """A parameter passed twice must be stepped exactly once per step()."""

    def test_duplicates_are_dropped_preserving_order(self):
        a, b = quadratic_param(1.0), quadratic_param(2.0)
        opt = Adam([a, b, a, b, a], lr=0.1)
        assert [id(p) for p in opt.params] == [id(a), id(b)]

    def test_steps_shared_param_once(self):
        shared, solo = quadratic_param(5.0), quadratic_param(5.0)
        # Emulate concatenating sub-model and fusion param lists that
        # share a module: the shared param appears twice.  Adam's first
        # step moves a parameter by lr whatever its gradient, so a second
        # step shows as a second lr.
        opt_shared = Adam([shared, shared], lr=0.1)
        opt_solo = Adam([solo], lr=0.1)
        for opt, p in ((opt_shared, shared), (opt_solo, solo)):
            loss = (p * p).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_array_equal(shared.data, solo.data)

    def test_adam_moment_state_matches_dedup(self):
        shared, solo = quadratic_param(5.0), quadratic_param(5.0)
        opt_shared = Adam([shared, shared, shared], lr=1e-2)
        opt_solo = Adam([solo], lr=1e-2)
        assert len(opt_shared._m) == 1   # one moment buffer, not three
        for _ in range(5):
            for opt, p in ((opt_shared, shared), (opt_solo, solo)):
                loss = (p * p).sum()
                opt.zero_grad()
                loss.backward()
                opt.step()
        np.testing.assert_array_equal(shared.data, solo.data)

    def test_equal_valued_distinct_params_both_kept(self):
        a, b = quadratic_param(3.0), quadratic_param(3.0)
        opt = Adam([a, b], lr=0.1)
        assert len(opt.params) == 2      # identity, not value, dedup
