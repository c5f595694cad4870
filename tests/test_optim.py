import inspect
import logging

import numpy as np
import pytest

from speechmotion import AdamState, Var, adam_step
from speechmotion.autodiff import Gradients
from speechmotion.optim import clip_global_norm

import reference


def _params(rng):
    return {"w": Var(rng.normal(size=(3, 2))), "b": Var(rng.normal(size=(1, 2)))}


def test_zero_gradient_leaves_parameters_unchanged(rng):
    params = _params(rng)
    grads = {k: np.zeros_like(p.data) for k, p in params.items()}
    new, state = adam_step(params, grads, AdamState.fresh(params), lr=0.1)
    for k in params:
        assert np.array_equal(new[k].data, params[k].data)
    assert state.step == 1


def test_first_step_closed_form(rng):
    params = _params(rng)
    g = {k: rng.normal(size=p.shape) for k, p in params.items()}
    lr, eps = 1e-2, 1e-8
    new, _ = adam_step(params, g, AdamState.fresh(params), lr=lr, eps=eps)
    for k, p in params.items():
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        expect = p.data - lr * g[k] / (np.abs(g[k]) + eps)
        assert np.allclose(new[k].data, expect, atol=0, rtol=1e-12)
        update = new[k].data - p.data
        assert np.all(np.sign(update) == -np.sign(g[k]))
        assert np.allclose(np.abs(update), lr, rtol=1e-6)


def test_learning_rate_default_is_1e_minus_4():
    assert inspect.signature(adam_step).parameters["lr"].default == 1e-4


def test_missing_gradient_warns_and_keeps_parameter(rng, caplog):
    params = _params(rng)
    grads = {"w": np.ones((3, 2))}
    with caplog.at_level(logging.WARNING):
        new, _ = adam_step(params, grads, AdamState.fresh(params), lr=0.1)
    assert "no gradient" in caplog.text and "'b'" in caplog.text
    assert np.array_equal(new["b"].data, params["b"].data)
    assert not np.array_equal(new["w"].data, params["w"].data)


def test_deterministic(rng):
    # adam_step consumes its state, so each run gets its own fresh one
    params = _params(rng)
    grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
    a1, s1 = adam_step(params, grads, AdamState.fresh(params), lr=1e-3)
    a2, s2 = adam_step(params, grads, AdamState.fresh(params), lr=1e-3)
    for k in params:
        assert a1[k].data.tobytes() == a2[k].data.tobytes()
    assert s1.m.tobytes() == s2.m.tobytes() and s1.v.tobytes() == s2.v.tobytes()


def test_negative_step_counter_rejected(rng):
    params = _params(rng)
    state = AdamState.fresh(params)
    state.step = -1
    with pytest.raises(ValueError):
        adam_step(params, {}, state)


def test_clip_global_norm():
    grads = {"a": np.array([[3.0, 0.0]]), "b": np.array([[0.0, 4.0]])}
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == 5.0
    total = np.sqrt(sum(np.square(g).sum() for g in clipped.values()))
    assert np.isclose(total, 1.0)
    small = {"a": np.array([[0.1]])}
    same, norm = clip_global_norm(small, 1.0)
    assert same["a"] is small["a"] and norm == pytest.approx(0.1)


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays.values()])


def test_steps_match_reference(rng, caplog):
    # three clipped and three unclipped steps, the last without a gradient
    # for "b": clip and Adam over flat vectors keep every bit of the
    # parameter-by-parameter update
    params = {"w": Var(rng.normal(size=(3, 2))), "b": Var(rng.normal(size=(1, 2))),
              "c": Var(rng.normal(size=(4, 1)))}
    knobs = dict(lr=1e-2, beta1=0.97, beta2=0.999, eps=1e-8)
    before = {k: p.data.tobytes() for k, p in params.items()}
    ours, state = params, AdamState.fresh(params)
    theirs, moments = params, reference.AdamMoments.fresh(params)
    clipped = []
    for step, scale in enumerate((3.0, 0.1, 5.0, 0.2, 4.0, 0.3)):
        arrays = {k: rng.normal(size=p.shape) * scale for k, p in params.items()}
        if step == 5:
            del arrays["b"]
        if step < 5:  # as backward returns them
            grads = Gradients.views(_flat(arrays), arrays)
        else:
            grads = dict(arrays)
        want, want_norm = reference.clip_global_norm(arrays, 1.0)
        got, norm = clip_global_norm(grads, 1.0)
        assert norm == want_norm
        clipped.append(norm > 1.0)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes()
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            ours, state = adam_step(ours, got, state, **knobs)
            theirs, moments = reference.adam_step(theirs, want, moments, **knobs)
        warned = [r.getMessage() for r in caplog.records if r.name == "speechmotion.optim"]
        expect = ["no gradient for parameter 'b'; treating as zero"] if step == 5 else []
        assert warned == expect
        for k in params:
            assert ours[k].data.tobytes() == theirs[k].data.tobytes()
        assert state.step == moments.step == step + 1
        assert state.m.tobytes() == _flat(moments.m).tobytes()
        assert state.v.tobytes() == _flat(moments.v).tobytes()
    assert clipped == [True, False] * 3
    assert {k: p.data.tobytes() for k, p in params.items()} == before
