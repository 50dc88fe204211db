import pytest

from perfbench import calibrate


def test_normalising_removes_a_change_of_host_speed():
    fast = calibrate.normalise(2.0, calibrate.REFERENCE_S, calibrate.REFERENCE_S)
    # the same work on a host 1.5x slower: the op and the kernel both take longer
    slow = calibrate.normalise(3.0, 1.5 * calibrate.REFERENCE_S, 1.5 * calibrate.REFERENCE_S)
    assert fast == pytest.approx(2.0)
    assert slow == pytest.approx(fast)


def test_normalising_keeps_a_change_of_the_program():
    before = calibrate.normalise(2.0, 0.06, 0.07)
    assert calibrate.normalise(1.0, 0.06, 0.07) == pytest.approx(before / 2)
