import inspect

import numpy as np
import pytest

from speechmotion import AdamState, Var, adam_step
from speechmotion.autodiff import Gradients
from speechmotion.optim import clip_global_norm

import reference


def _params(rng):
    return {"w": Var(rng.normal(size=(3, 2))), "b": Var(rng.normal(size=(1, 2)))}


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays.values()])


def _grads(arrays):
    """``arrays`` as backward returns them: views of one flat vector."""
    return Gradients.views(_flat(arrays), {k: a.shape for k, a in arrays.items()})


def test_zero_gradient_leaves_parameters_unchanged(rng):
    params = _params(rng)
    grads = _grads({k: np.zeros_like(p.data) for k, p in params.items()})
    new, state = adam_step(grads, AdamState.fresh(params), lr=0.1)
    for k in params:
        assert np.array_equal(new[k].data, params[k].data)
    assert state.step == 1


def test_first_step_closed_form(rng):
    params = _params(rng)
    g = {k: rng.normal(size=p.shape) for k, p in params.items()}
    lr, eps = 1e-2, 1e-8
    new, _ = adam_step(_grads(g), AdamState.fresh(params), lr=lr, eps=eps)
    for k, p in params.items():
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        expect = p.data - lr * g[k] / (np.abs(g[k]) + eps)
        assert np.allclose(new[k].data, expect, atol=0, rtol=1e-12)
        update = new[k].data - p.data
        assert np.all(np.sign(update) == -np.sign(g[k]))
        assert np.allclose(np.abs(update), lr, rtol=1e-6)


def test_learning_rate_default_is_1e_minus_4():
    assert inspect.signature(adam_step).parameters["lr"].default == 1e-4


def test_gradients_not_from_backward_rejected(rng):
    # a plain mapping, Gradients in another order or of another shape would
    # move the wrong entries of the flat vector: each is an error, and the
    # state is left as it was
    params = _params(rng)
    state = AdamState.fresh(params)
    arrays = {k: np.ones(p.shape) for k, p in params.items()}
    swapped = {"b": arrays["b"], "w": arrays["w"]}
    reshaped = {"w": np.ones((2, 3)), "b": arrays["b"]}
    for grads in (arrays, _grads(swapped), _grads(reshaped), _grads({"w": arrays["w"]})):
        with pytest.raises(ValueError, match="Gradients that backward returns"):
            adam_step(grads, state)
    assert state.step == 0 and not state.m.any() and not state.v.any()
    adam_step(_grads(arrays), state)
    assert state.step == 1


def test_bundle_is_a_view_of_the_state_and_no_bundle_is_written(rng):
    params = _params(rng)
    before = {k: p.data.copy() for k, p in params.items()}
    state = AdamState.fresh(params)
    assert all(not np.shares_memory(state.p, p.data) for p in params.values())
    bundles = []
    for _ in range(2):
        grads = _grads({k: rng.normal(size=p.shape) for k, p in params.items()})
        new, state = adam_step(grads, state, lr=0.1)
        assert all(np.shares_memory(state.p, p.data) for p in new.values())
        assert list(new) == list(params)
        bundles.append({k: p.data.copy() for k, p in new.items()})
    for k in params:
        assert np.array_equal(params[k].data, before[k])
        assert not np.array_equal(bundles[0][k], bundles[1][k])


def test_deterministic(rng):
    # adam_step consumes its state, so each run gets its own fresh one
    params = _params(rng)
    arrays = {k: rng.normal(size=p.shape) for k, p in params.items()}
    a1, s1 = adam_step(_grads(arrays), AdamState.fresh(params), lr=1e-3)
    a2, s2 = adam_step(_grads(arrays), AdamState.fresh(params), lr=1e-3)
    for k in params:
        assert a1[k].data.tobytes() == a2[k].data.tobytes()
    assert s1.m.tobytes() == s2.m.tobytes() and s1.v.tobytes() == s2.v.tobytes()


def test_negative_step_counter_rejected(rng):
    params = _params(rng)
    state = AdamState.fresh(params)
    state.step = -1
    with pytest.raises(ValueError):
        adam_step(_grads({k: np.zeros(p.shape) for k, p in params.items()}), state)


def test_clip_global_norm():
    grads = _grads({"a": np.array([[3.0, 0.0]]), "b": np.array([[0.0, 4.0]])})
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == 5.0 and clipped is grads
    assert np.isclose(np.sqrt(np.square(grads.flat).sum()), 1.0)
    small = _grads({"a": np.array([[0.1]])})
    same, norm = clip_global_norm(small, 1.0)
    assert same is small and same.flat[0] == 0.1 and norm == pytest.approx(0.1)


def test_steps_match_reference(rng):
    # three clipped and three unclipped steps: clip and Adam over flat
    # vectors keep every bit of the parameter-by-parameter update
    params = {"w": Var(rng.normal(size=(3, 2))), "b": Var(rng.normal(size=(1, 2))),
              "c": Var(rng.normal(size=(4, 1)))}
    knobs = dict(lr=1e-2, beta1=0.97, beta2=0.999, eps=1e-8)
    before = {k: p.data.tobytes() for k, p in params.items()}
    ours, state = params, AdamState.fresh(params)
    theirs, moments = params, reference.AdamMoments.fresh(params)
    clipped = []
    for step, scale in enumerate((3.0, 0.1, 5.0, 0.2, 4.0, 0.15)):
        arrays = {k: rng.normal(size=p.shape) * scale for k, p in params.items()}
        want, want_norm = reference.clip_global_norm(arrays, 1.0)
        got, norm = clip_global_norm(_grads(arrays), 1.0)
        assert norm == want_norm
        clipped.append(norm > 1.0)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes()
        ours, state = adam_step(got, state, **knobs)
        theirs, moments = reference.adam_step(theirs, want, moments, **knobs)
        for k in params:
            assert ours[k].data.tobytes() == theirs[k].data.tobytes()
        assert state.step == moments.step == step + 1
        assert state.m.tobytes() == _flat(moments.m).tobytes()
        assert state.v.tobytes() == _flat(moments.v).tobytes()
    assert clipped == [True, False] * 3
    assert {k: p.data.tobytes() for k, p in params.items()} == before
