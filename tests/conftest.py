import numpy as np
import pytest

from speechmotion import EncodedAudio, ModelConfig, Var, decoder_layer, init_params
from speechmotion.decoder import layer_caches


def finite_diff(f, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array,
    mutating it in place and restoring it. The independent gradient oracle."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + step
        fp = f()
        arr[idx] = old - step
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative error, safe when both sides vanish."""
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom < 1e-12:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def cached_step(enc, params, cfg, rows, s, layer=0, bump=False):
    """Output of cached decoder step s of ``layer`` after steps 0..s-1, each
    step fed its row of ``rows``. With ``bump``, what step s must not read
    is perturbed first: the enc.a rows outside its window [k*s, k*(s + 1))
    and the cache's key and value rows after s."""
    if bump:
        k = cfg.frame_ratio
        a = enc.a.data.copy()
        a[: k * s] += 1.0
        a[k * (s + 1) :] += 1.0
        enc = EncodedAudio(Var(a), enc.motion_len)
    past = layer_caches(enc, len(rows), params, cfg)[layer]
    for i in range(s):
        decoder_layer(Var(rows[i : i + 1]), past)
    if bump:
        past.keys[s + 1 :] += 1.0
        past.values[s + 1 :] += 1.0
    return decoder_layer(Var(rows[s : s + 1]), past)[0].data


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(0))


TINY = ModelConfig(
    dim=8, heads=2, period=3, feature_rate=50.0, motion_rate=25.0,
    encoder_layers=1, decoder_layers=1, ff_dim=16, vertices=3,
    identities=2, feature_dim=4, encoder_dim=8, encoder_heads=2,
)


@pytest.fixture
def tiny_cfg():
    return TINY.validate()


@pytest.fixture
def tiny_params(tiny_cfg):
    return init_params(tiny_cfg, seed=0)
