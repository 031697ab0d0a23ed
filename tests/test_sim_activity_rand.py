"""Tests for cooperative activities and deterministic randomness."""

import pytest

from repro.sim.activity import ActivityRuntime, Sleep
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler


@pytest.fixture
def runtime():
    return ActivityRuntime(Scheduler())


class TestActivities:
    def test_activity_runs_to_completion(self, runtime):
        steps = []

        def work():
            steps.append(1)
            yield Sleep(1.0)
            steps.append(2)
            return "done"

        activity = runtime.spawn(work())
        runtime.run_all()
        assert steps == [1, 2]
        assert activity.done
        assert activity.result == "done"

    def test_sleep_advances_virtual_time(self, runtime):
        times = []

        def work():
            times.append(runtime.scheduler.now)
            yield Sleep(25.0)
            times.append(runtime.scheduler.now)

        runtime.spawn(work())
        runtime.run_all()
        assert times[0] == 0.0
        assert times[1] == 25.0

    def test_activities_interleave(self, runtime):
        trace = []

        def worker(name, delay):
            for i in range(3):
                trace.append((name, i))
                yield Sleep(delay)

        runtime.spawn(worker("fast", 1.0))
        runtime.spawn(worker("slow", 10.0))
        runtime.run_all()
        # The fast worker finishes all steps before slow's second step.
        assert trace.index(("fast", 2)) < trace.index(("slow", 1))

    def test_activity_error_is_reraised_by_run_all(self, runtime):
        def broken():
            yield Sleep(1.0)
            raise ValueError("boom")

        runtime.spawn(broken())
        with pytest.raises(ValueError, match="boom"):
            runtime.run_all()

    def test_plain_yield_is_cooperative(self, runtime):
        trace = []

        def worker(name):
            trace.append(name + "-a")
            yield None
            trace.append(name + "-b")

        runtime.spawn(worker("x"))
        runtime.spawn(worker("y"))
        runtime.run_all()
        assert trace == ["x-a", "y-a", "x-b", "y-b"]


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(7)
        b = DeterministicRandom(7)
        assert [a.random() for _ in range(10)] == \
               [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRandom(1)
        b = DeterministicRandom(2)
        assert [a.random() for _ in range(5)] != \
               [b.random() for _ in range(5)]

    def test_fork_is_independent_of_parent_consumption(self):
        a = DeterministicRandom(7)
        fork_before = a.fork("net").random()
        a.random()  # consume from parent
        fork_after = DeterministicRandom(7).fork("net").random()
        assert fork_before == fork_after

    def test_chance_extremes(self):
        rng = DeterministicRandom(0)
        assert rng.chance(0.0) is False
        assert rng.chance(1.0) is True

    def test_uniform_bounds(self):
        rng = DeterministicRandom(3)
        for _ in range(100):
            value = rng.uniform(2.0, 5.0)
            assert 2.0 <= value <= 5.0
