"""The probe gauges the step CPU and scales a step's CPU time by what it saw."""

from __future__ import annotations

import os
import time

import pytest

from perfbench import sut


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_in_process_cost_scales_cpu_time_and_restores_affinity():
    before = os.sched_getaffinity(0)
    cost = sut.in_process_cost(lambda: _spin(0.3))
    assert os.sched_getaffinity(0) == before
    # the scale is the tuning host's chunk time over the one measured here,
    # which a shared host moves by a factor of two at most
    assert 0.3 / 4 < cost < 0.3 * 4


def test_idle_probe_measures_in_the_gaps_of_a_sleeping_step():
    with sut.Probe(idle=True) as probe:
        time.sleep(0.3)
    assert probe.chunk_s > 0
    assert probe.scale == pytest.approx(sut.PROBE_CHUNK_S / probe.chunk_s)


@pytest.mark.parametrize("argv", [["true"], ["sh", "-c", "echo ready"]])
def test_probe_that_did_not_start_or_measured_nothing_is_an_error(argv):
    probe = sut.Probe()
    probe.argv = argv
    with pytest.raises(sut.BenchError):
        with probe:
            pass
