from hypmix.stats import mean_ci95


def test_mean_ci95_constant_samples_have_zero_width():
    # Every step of a point-mass walk moves one letter out, so each trial's
    # drift is exactly 1 and the interval has no width.
    assert mean_ci95([1.0] * 5) == (1.0, 0.0)
