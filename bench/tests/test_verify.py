"""The key-stripe model and the post-run convergence check."""

import pytest

from bench.verify import (
    ERR_EXISTS, ERR_NOT_FOUND, OK, StripeModel, VerificationError, check_convergence,
)

PRELOAD = b"\x00" * 8


def model(index=0):
    return StripeModel(index, 2, 100, PRELOAD)


def test_model_predicts_values_and_error_codes():
    stripe = model()
    assert stripe.apply("read", 4) == (OK, PRELOAD)
    assert stripe.apply("update", 4, b"new") == (OK, None)
    assert stripe.apply("read", 4) == (OK, b"new")
    assert stripe.apply("insert", 4, b"x") == (ERR_EXISTS, None)
    assert stripe.apply("read", 100) == (ERR_NOT_FOUND, None)
    assert stripe.apply("update", 100, b"x") == (ERR_NOT_FOUND, None)
    assert stripe.apply("insert", 100, b"x") == (OK, None)
    assert stripe.apply("delete", 100) == (OK, None)
    assert stripe.apply("delete", 100) == (ERR_NOT_FOUND, None)
    with pytest.raises(ValueError):
        stripe.apply("read", 5)  # the other generator's stripe


def test_a_predicted_error_is_a_success():
    stripe = model()
    expected = stripe.apply("insert", 2, b"x")
    assert stripe.check(expected, ERR_EXISTS, None)
    assert (stripe.wrong_values, stripe.wrong_errors) == (0, 0)


def test_a_wrong_value_is_counted():
    stripe = model()
    expected = stripe.apply("read", 2)
    assert not stripe.check(expected, OK, b"stale")
    assert (stripe.wrong_values, stripe.wrong_errors) == (1, 0)


def test_a_wrong_error_code_is_counted():
    stripe = model()
    expected = stripe.apply("update", 2, b"x")
    assert not stripe.check(expected, ERR_NOT_FOUND, None)
    assert (stripe.wrong_values, stripe.wrong_errors) == (0, 1)


def converged_state():
    models = [model(0), model(1)]
    models[0].apply("update", 2, b"two")
    models[0].apply("insert", 100, b"spare")
    models[1].apply("delete", 3)
    state = {key: PRELOAD for key in range(100)}
    state.update({2: b"two", 100: b"spare"})
    del state[3]
    return models, state


def test_converged_replicas_pass():
    models, state = converged_state()
    check_convergence([dict(state), dict(state)], models, 0)


def test_a_diverged_snapshot_is_raised():
    models, state = converged_state()
    with pytest.raises(VerificationError, match="replica 1 diverged"):
        check_convergence([state, {**state, 7: b"other"}], models, 0)


def test_a_state_the_models_do_not_predict_is_raised():
    models, state = converged_state()
    lost_write = {**state, 2: PRELOAD}
    with pytest.raises(VerificationError, match="key 2"):
        check_convergence([lost_write, dict(lost_write)], models, 0)
    extra_key = {**state, 101: b"x"}
    with pytest.raises(VerificationError, match="101 keys"):
        check_convergence([extra_key, dict(extra_key)], models, 0)


def test_a_marker_boundary_violation_is_raised():
    models, state = converged_state()
    with pytest.raises(VerificationError, match="marker boundary"):
        check_convergence([state, dict(state)], models, 1)
