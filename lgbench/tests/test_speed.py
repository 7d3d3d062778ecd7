"""The speed probe samples while started and rescales wall times."""

import time

import speed


def test_probe_samples_while_started():
    probe = speed.Probe()
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.stop()
    n = len(probe.samples)
    assert n >= 5
    assert probe.take() > 0.0
    assert probe.samples == []


def test_take_without_samples_times_the_task_once():
    assert speed.Probe().take() > 0.0


def test_at_reference_scales_by_the_task_time():
    assert speed.at_reference(10.0, speed.REF_S) == 10.0
    assert speed.at_reference(10.0, 2.0 * speed.REF_S) == 5.0
