import numpy as np
import pytest
from scipy.integrate import solve_ivp

from randonet import odeint
from randonet.odeint import dopri5_batch

K_GRAV = 9.81


def samples(n):
    """``args`` that hand the right-hand side the indices of the live samples."""
    return (np.arange(n),)


def pendulum_rhs(forcings):
    """``rhs(t, y, idx)`` for ``args=(samples(n),)``: ``idx`` are the live samples."""

    def rhs(t, y, idx):
        force = np.array([forcings[i](ti) for i, ti in zip(idx, t)])
        return np.column_stack([y[:, 1], -K_GRAV * np.sin(y[:, 0]) + force])

    return rhs


def test_zero_forcing_stays_exactly_at_equilibrium():
    rhs = pendulum_rhs([lambda t: 0.0])
    t_eval = np.linspace(0, 1, 101)
    values, ok = dopri5_batch(rhs, (0.0, 1.0), np.zeros((1, 2)), t_eval, args=samples(1))
    assert ok.all()
    np.testing.assert_array_equal(values, np.zeros((1, 101, 2)))


def test_linearized_pendulum_closed_form():
    eps = 1e-6
    rhs = pendulum_rhs([lambda t: eps])
    t_eval = np.linspace(0, 1, 101)
    values, ok = dopri5_batch(rhs, (0.0, 1.0), np.zeros((1, 2)), t_eval, args=samples(1))
    assert ok.all()
    closed = (eps / K_GRAV) * (1 - np.cos(np.sqrt(K_GRAV) * t_eval))
    assert np.max(np.abs(values[0, :, 0] - closed)) <= 1e-9


def test_matches_scipy_at_tight_tolerances():
    def forcing(t):
        return np.sin(7 * t) + 0.3 * np.cos(2 * t)

    rhs = pendulum_rhs([forcing])
    t_eval = np.linspace(0, 1, 50)
    values, ok = dopri5_batch(
        rhs, (0.0, 1.0), np.zeros((1, 2)), t_eval, rtol=1e-12, atol=1e-14, args=samples(1)
    )
    assert ok.all()
    ref = solve_ivp(
        lambda t, y: [y[1], -K_GRAV * np.sin(y[0]) + forcing(t)],
        (0.0, 1.0),
        [0.0, 0.0],
        method="RK45",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    assert np.max(np.abs(values[0, :, 0] - ref.sol(t_eval)[0])) <= 1e-9


def test_halving_tolerances_changes_little():
    rng = np.random.default_rng(3)
    freqs = rng.uniform(1, 20, 10)
    amps = rng.uniform(-0.5, 0.5, 10)
    forcings = [
        (lambda a, f: (lambda t: a * np.sin(f * t)))(a, f) for a, f in zip(amps, freqs)
    ]
    rhs = pendulum_rhs(forcings)
    t_eval = np.linspace(0, 1, 100)
    y0 = np.zeros((10, 2))
    coarse, ok1 = dopri5_batch(
        rhs, (0.0, 1.0), y0, t_eval, rtol=1e-10, atol=1e-12, args=samples(10)
    )
    fine, ok2 = dopri5_batch(
        rhs, (0.0, 1.0), y0, t_eval, rtol=5e-11, atol=5e-13, args=samples(10)
    )
    assert ok1.all() and ok2.all()
    assert np.max(np.abs(coarse[:, :, 0] - fine[:, :, 0])) < 1e-9


def test_results_independent_of_batch_composition():
    forcings = [lambda t: np.sin(5 * t), lambda t: np.cos(3 * t), lambda t: t * t]
    rhs_all = pendulum_rhs(forcings)
    t_eval = np.linspace(0, 1, 25)
    batch, _ = dopri5_batch(rhs_all, (0.0, 1.0), np.zeros((3, 2)), t_eval, args=samples(3))
    solo, _ = dopri5_batch(
        pendulum_rhs(forcings[1:2]), (0.0, 1.0), np.zeros((1, 2)), t_eval, args=samples(1)
    )
    np.testing.assert_array_equal(batch[1], solo[0])


def test_step_budget_failure_is_reported():
    rhs = pendulum_rhs([lambda t: np.sin(40 * t)])
    values, ok = dopri5_batch(
        rhs, (0.0, 1.0), np.zeros((1, 2)), np.linspace(0, 1, 5), max_steps=3, args=samples(1)
    )
    assert not ok[0]


def test_eval_points_include_endpoints():
    rhs = pendulum_rhs([lambda t: 1.0])
    t_eval = np.array([0.0, 0.5, 1.0])
    values, ok = dopri5_batch(rhs, (0.0, 1.0), np.zeros((1, 2)), t_eval, args=samples(1))
    assert ok.all()
    assert values[0, 0, 0] == 0.0
    assert np.isfinite(values).all()


def test_rejects_bad_span_and_outside_eval():
    with pytest.raises(ValueError, match="increasing"):
        dopri5_batch(lambda t, y: y, (1.0, 0.0), np.zeros((1, 1)), np.array([0.5]))
    with pytest.raises(ValueError, match="inside"):
        dopri5_batch(lambda t, y: y, (0.0, 1.0), np.zeros((1, 1)), np.array([2.0]))
    # y'' = -y from (1, 0): a decreasing t_eval once came back ok with
    # values that were not cos t.
    with pytest.raises(ValueError, match="non-decreasing"):
        dopri5_batch(lambda t, y: np.column_stack([y[:, 1], -y[:, 0]]), (0.0, 1.0),
                     np.array([[1.0, 0.0]]), np.array([1.0, 0.5, 0.0]))
    with pytest.raises(ValueError, match="one row per sample"):
        dopri5_batch(lambda t, y, a: y, (0.0, 1.0), np.zeros((2, 1)), [0.5], args=samples(3))


def decay(t, y):
    return -y


@pytest.mark.parametrize("rtol, atol, name", [
    (-1.0, 1e-12, "rtol"), (np.nan, 1e-12, "rtol"), (np.inf, 1e-12, "rtol"),
    (1e-10, -1e-12, "atol"), (1e-10, np.inf, "atol"),
])
def test_rejects_negative_or_non_finite_tolerances(rtol, atol, name):
    # rtol=-1 on y' = -y once came back ok, 1.3e-5 away from exp(-1).
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        dopri5_batch(decay, (0.0, 1.0), np.ones((1, 1)), np.array([1.0]), rtol=rtol, atol=atol)


def test_rejects_zero_rtol_and_atol():
    # Once ok=False after divide-by-zero warnings.
    with pytest.raises(ValueError, match="rtol and atol must not both be 0"):
        dopri5_batch(decay, (0.0, 1.0), np.ones((1, 1)), np.array([1.0]), rtol=0.0, atol=0.0)
    values, ok = dopri5_batch(decay, (0.0, 1.0), np.ones((1, 1)), np.array([1.0]),
                              rtol=1e-10, atol=0.0)
    assert ok[0] and values[0, 0, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)


def no_call(t, y):
    raise AssertionError("the right-hand side was called")


@pytest.mark.parametrize("max_steps", [0, -3])
def test_rejects_a_step_budget_below_one(max_steps):
    # max_steps=0 once returned ok=False with no message.
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        dopri5_batch(no_call, (0.0, 1.0), np.ones((1, 1)), np.array([1.0]),
                     max_steps=max_steps)


@pytest.mark.parametrize("t_span", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)],
                         ids=["0-nan", "0-inf", "nan-1", "-inf-0"])
def test_rejects_a_non_finite_time_span(t_span):
    # y' = y on (0, inf) once came back ok with the values [1, 1].
    with pytest.raises(ValueError, match=r"^t_span must be increasing with a finite length"):
        dopri5_batch(no_call, t_span, np.ones((1, 1)), np.array([0.0, 0.0]))


@pytest.mark.parametrize("y0, message", [
    (np.array([[1.0 + 1.0j]]), "y0 must be real, got dtype complex128"),
    (np.array([[np.nan]]), "y0 contains non-finite entries"),
    (np.array([[0.0], [np.inf]]), "y0 contains non-finite entries"),
], ids=["complex", "nan", "inf"])
def test_rejects_a_complex_or_non_finite_initial_state(y0, message):
    # A NaN y0 once used up the step budget: six calls per step.
    with pytest.raises(ValueError, match=f"^{message}"):
        dopri5_batch(no_call, (0.0, 1.0), y0, np.array([1.0]))


def test_rejects_a_nan_output_time():
    # A NaN output time once passed both the range and the order check.
    with pytest.raises(ValueError, match="^t_eval contains non-finite entries"):
        dopri5_batch(no_call, (0.0, 1.0), np.ones((1, 1)), np.array([0.5, np.nan]))


@pytest.mark.parametrize("t_nan", [0.0, 0.5])
def test_a_nan_right_hand_side_fails_the_sample_within_a_few_hundred_calls(t_nan):
    # A NaN error estimate once grew the step's factor to its maximum and a
    # rejected step kept its size, so the sample ran out its whole default
    # budget: six calls per step, 6e6 calls.
    late_calls = []

    def turns_nan(t, y):
        if not t[0] < t_nan:  # a NaN time counts as late
            late_calls.append(t[0])
            assert len(late_calls) <= 500, "the step budget is being used up"
            return np.full_like(y, np.nan)
        return -y

    _, ok = dopri5_batch(turns_nan, (0.0, 1.0), np.ones((1, 1)), np.array([1.0]))
    assert not ok[0]


def test_no_right_hand_side_evaluation_repeats_the_one_before():
    forcings = [lambda t: np.sin(7 * t), lambda t: 0.3, lambda t: np.cos(2 * t)]
    rhs = pendulum_rhs(forcings)
    calls = []

    def recording(t, y, idx):
        calls.append((t.copy(), y.copy()))
        return rhs(t, y, idx)

    _, ok = dopri5_batch(
        recording, (0.0, 1.0), np.full((3, 2), 0.1), np.linspace(0, 1, 11), args=samples(3)
    )
    assert ok.all()
    assert len(calls) > 10
    for (t_prev, y_prev), (t_next, y_next) in zip(calls, calls[1:]):
        assert not (np.array_equal(t_prev, t_next) and np.array_equal(y_prev, y_next))


def test_active_set_shrinks_and_fsal_call_repeats_the_sixth_stage_time():
    # Forcings of different speed finish after different step counts.
    forcings = [lambda t: np.sin(40 * t), lambda t: 0.3, lambda t: np.cos(9 * t), lambda t: 0.0]
    rhs = pendulum_rhs(forcings)
    calls = []

    def recording(t, y, idx):
        calls.append((t.copy(), idx.copy()))
        return rhs(t, y, idx)

    _, ok = dopri5_batch(
        recording, (0.0, 1.0), np.full((4, 2), 0.1), np.linspace(0, 1, 11), args=samples(4)
    )
    assert ok.all()
    # One call at t0 and one for the initial step, then six per step:
    # stages 2-6 and the first-same-as-last stage at (t + h, y_new).
    steps = [calls[i:i + 6] for i in range(2, len(calls), 6)]
    assert len(calls) == 2 + 6 * len(steps)
    previous = np.arange(4)
    for step in steps:
        idx = step[0][1]
        assert all(np.array_equal(i, idx) for _, i in step)
        assert np.all(np.diff(idx) > 0) and np.isin(idx, previous).all()
        previous = idx
        (t_six, _), (t_fsal, _) = step[4], step[5]
        assert np.all(t_fsal[t_fsal != t_six] == 1.0)
    assert previous.size < 4


def test_every_call_hands_f_the_original_rows_of_the_live_samples():
    # More than two compaction chunks of samples: faster forcings take more
    # steps, and the fastest run out of step budget.
    n = 2 * odeint._COMPACT_CHUNK + 44
    rng = np.random.default_rng(4)
    data = np.column_stack([rng.uniform(0, 60, n), rng.uniform(-1, 1, n)])

    def solve(order):
        calls = []

        def rhs(t, y, idx, rows):
            calls.append(idx.copy())
            np.testing.assert_array_equal(rows, data[order][idx])
            force = rows[:, 1] * np.sin(rows[:, 0] * t)
            return np.column_stack([y[:, 1], -K_GRAV * np.sin(y[:, 0]) + force])

        values, ok = dopri5_batch(
            rhs, (0.0, 1.0), np.zeros((n, 2)), np.linspace(0, 1, 11), max_steps=400,
            args=(np.arange(n), data[order]),
        )
        return values, ok, calls

    values, ok, calls = solve(np.arange(n))
    assert 0 < np.count_nonzero(ok) < n
    assert calls[0].size == n and len({idx.size for idx in calls}) > 100
    for before, after in zip(calls, calls[1:]):
        assert np.all(np.diff(after) > 0) and np.isin(after, before).all()
        if after.size == before.size:
            np.testing.assert_array_equal(after, before)
    # In reverse order other rows leave the batch, and every sample ends
    # with the same bits.
    values_rev, ok_rev, _ = solve(np.arange(n)[::-1])
    np.testing.assert_array_equal(values_rev[::-1], values)
    np.testing.assert_array_equal(ok_rev[::-1], ok)
