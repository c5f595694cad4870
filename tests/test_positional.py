import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import (
    ConfigError,
    ModelConfig,
    alignment_bias,
    head_slopes,
    ppe_row,
)
from speechmotion import autodiff as ad
from speechmotion.errors import ShapeError
from speechmotion.positional import decoder_self_bias, sinusoid_row

from reference import causal_mask, positional_table, temporal_bias


def _cfg(mode="tb_ppe", period=10, dim=4):
    return dataclasses.replace(ModelConfig(), pe_mode=mode, period=period, dim=dim)


class TestPpe:
    def test_periodicity_bitwise(self):
        cfg = _cfg(period=5, dim=8)
        for t in range(3 * 5):
            assert np.array_equal(ppe_row(t, cfg), ppe_row(t + 5, cfg))

    def test_step_zero(self):
        row = ppe_row(0, _cfg(dim=6))[0]
        assert np.array_equal(row[0::2], np.zeros(3))
        assert np.array_equal(row[1::2], np.ones(3))

    def test_direct_scalar_evaluation(self):
        # component 0 at t=3, p=10, d=4 is sin(3 / 10000^0) = sin(3)
        row = ppe_row(3, _cfg(period=10, dim=4))[0]
        assert row[0] == pytest.approx(0.1411200080598672, abs=1e-15)
        assert row[1] == pytest.approx(math.cos(3.0), abs=1e-15)
        assert row[2] == pytest.approx(math.sin(3.0 / 10000 ** 0.5), abs=1e-15)

    def test_original_mode_drops_modulus(self):
        cfg = _cfg(mode="original_pe", period=2, dim=4)
        assert np.array_equal(ppe_row(7, cfg), sinusoid_row(7, 4))
        assert not np.array_equal(ppe_row(7, cfg), ppe_row(5, cfg))

    def test_alibi_mode_is_zero(self):
        assert not np.any(ppe_row(9, _cfg(mode="alibi")))

    def test_negative_step_rejected(self):
        with pytest.raises(ShapeError):
            ppe_row(-1, _cfg())

    def test_table_invariants_per_mode(self):
        p = 4
        table = positional_table(_cfg(period=p, dim=6), max_steps=4 * p)
        for t in range(3 * p):
            assert np.array_equal(table[t], table[t + p])
        original = positional_table(_cfg(mode="original_pe", dim=6), 8)
        for t in range(8):
            assert np.array_equal(original[t], sinusoid_row(t, 6)[0])
        assert not np.any(positional_table(_cfg(mode="alibi", dim=6), 8))


class TestHeadSlopes:
    def test_four_heads_exact(self):
        assert head_slopes(4) == [2.0**-2, 2.0**-4, 2.0**-6, 2.0**-8]

    def test_one_head(self):
        assert head_slopes(1) == [2.0**-8]

    def test_eight_heads_geometric(self):
        slopes = head_slopes(8)
        assert slopes[0] == 2.0**-1
        for a, b in zip(slopes, slopes[1:]):
            assert b / a == 2.0**-1

    def test_strictly_decreasing_positive(self):
        for h in (1, 2, 4, 8, 16):
            slopes = head_slopes(h)
            assert all(s > 0 for s in slopes)
            assert all(a > b for a, b in zip(slopes, slopes[1:]))

    @pytest.mark.parametrize("bad", [0, 3, 6, -2])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(ConfigError, match="power of two"):
            head_slopes(bad)


class TestTemporalBias:
    def test_period_one_is_linear_penalty(self):
        # the linear-distance oracle, exact equality
        for t in (1, 5, 64):
            for slope in (0.25, 2.0**-8):
                bias = temporal_bias(t, 1, slope).data
                i, j = np.indices((t, t))
                oracle = np.where(j <= i, -slope * (i - j).astype(float), -np.inf)
                assert np.array_equal(bias, oracle)

    def test_period_two_entry(self):
        m = 0.125
        assert temporal_bias(5, 2, m).data[4, 0] == -2.0 * m

    def test_diagonal_and_upper_triangle(self):
        bias = temporal_bias(4, 3, 0.5).data
        assert np.array_equal(np.diag(bias), np.zeros(4))
        assert bias[0, 1] == -np.inf

    def test_rows_non_increasing_and_blockwise_constant(self):
        p = 3
        bias = temporal_bias(10, p, 0.7).data
        for i in range(10):
            finite = bias[i, : i + 1][::-1]  # by increasing distance
            assert np.all(np.diff(finite) <= 0)
            for dist in range(i + 1):
                assert finite[dist] == -0.7 * (dist // p)

    def test_validation(self):
        with pytest.raises(ShapeError):
            temporal_bias(0, 1, 1.0)
        with pytest.raises(ShapeError):
            temporal_bias(3, 1, -1.0)

    def test_causal_mask_kind_and_values(self):
        mask = causal_mask(3)
        assert mask.kind == "temporal"
        assert np.array_equal(
            mask.data, [[0, -np.inf, -np.inf], [0, 0, -np.inf], [0, 0, 0]]
        )


class TestDecoderSelfBias:
    @pytest.mark.parametrize("mode", ["tb_ppe", "alibi", "original_pe"])
    def test_rows_of_the_reference_bias(self, mode):
        cfg = _cfg(mode, period=3)
        for t in (1, 4, 11):
            if mode == "original_pe":
                full = causal_mask(t)
            else:
                full = temporal_bias(t, cfg.period if mode == "tb_ppe" else 1, 1.0)
            for first in range(t):
                rows = decoder_self_bias(t, cfg, first)
                assert rows.kind == "temporal"
                assert np.array_equal(rows.data, full.data[first:])
        with pytest.raises(ShapeError):
            decoder_self_bias(3, cfg, 3)


class TestAlignmentBias:
    def test_first_row_window(self):
        bias = alignment_bias(3, 3, 2).data
        assert np.array_equal(np.isfinite(bias[0]), [True, True, False, False, False, False])
        assert bias[0, 0] == 0.0 and bias[0, 1] == 0.0

    def test_ratio_one_is_diagonal(self):
        bias = alignment_bias(4, 4, 1).data
        assert np.array_equal(np.isfinite(bias), np.eye(4, dtype=bool))

    def test_softmax_support_is_window(self):
        t, total, k = 4, 5, 2
        bias = alignment_bias(t, total, k)
        weights = ad.softmax_rows(np.zeros((t, k * total)) + bias.data).data
        for i in range(t):
            support = np.flatnonzero(weights[i])
            assert np.array_equal(support, np.arange(k * i, k * (i + 1)))
            assert weights[i].sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4))
    def test_rows_partition_audio_axis(self, total, k):
        bias = alignment_bias(total, total, k).data
        finite = np.isfinite(bias)
        assert np.array_equal(finite.sum(axis=0), np.ones(k * total))
        assert np.array_equal(finite.sum(axis=1), np.full(total, k))

    def test_validation(self):
        with pytest.raises(ShapeError):
            alignment_bias(5, 4, 2)
        with pytest.raises(ShapeError):
            alignment_bias(2, 4, 0)
