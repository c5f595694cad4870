"""Spans and counters recorded from outside the package.

The package resolves its collaborators as module globals at call time (for
example ``decoder.rollout`` calls ``decoder_layer`` through the ``decoder``
module's namespace), so replacing those attributes with timing wrappers
records a span at each layer boundary without touching ``src/``. Counts are
derived from the tensor shapes that cross each boundary.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


# Spans whose descendants are kept apart: their spans and counts are named
# "<scope>/<name>", so the keep_best evaluation's rollouts are not charged to
# the optimizer step.
SCOPES = ("training.eval",)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._prefix = ""

    def wrap(self, fn, name, count=None):
        """``fn`` recorded as span ``name`` (a string, or a function of the
        call's arguments); ``count(counts, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            prefix = self._prefix
            label = prefix + (name if isinstance(name, str) else name(args))
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([label, perf_counter(), 0.0, parent, self.op])
            self._stack.append(idx)
            if label in SCOPES:
                self._prefix = label + "/"
            try:
                result = fn(*args, **kwargs)
            finally:
                self._prefix = prefix
                self._stack.pop()
                self.spans[idx][2] = perf_counter()
            if count is not None:
                got: dict[str, float] = defaultdict(float)
                count(got, args, result)
                for key, value in got.items():
                    self.counts[prefix + key] += value
            return result

        return traced

    def times(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and call count per span name."""
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child[i]
            calls[name] += 1
        return incl, self_t, calls


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _attention_kind(args) -> str:
    bias = args[4]
    return "attention.self" if bias is not None and bias.kind == "temporal" else "attention.cross"


def _count_attention(counts, args, result):
    x_q, x_kv, heads, bias = args[0], args[1], args[3], args[4]
    cells = heads * x_q.rows * x_kv.rows
    counts["attention.calls"] += 1
    counts["attention.score_cells"] += cells
    if bias is not None and bias.kind == "alignment":
        counts["attention.cross_cells"] += cells
        counts["attention.cross_masked_cells"] += heads * int(np.isneginf(bias.data).sum())


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _count_clip(counts, args, result):
    counts["optim.clip_calls"] += 1
    counts["optim.clipped"] += result[1] > args[1]


def layer_hooks(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced layer boundary."""
    from speechmotion import cli, decoder, encoder, positional, training

    def hook(owner, attr, name, count=None):
        return (owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    return [
        hook(cli, "load_checkpoint", "formats.ckpt_load",
             _add("formats.ckpt_bytes", lambda a, r: os.path.getsize(a[0]))),
        hook(cli, "read_wav", "formats.audio_read"),
        hook(cli, "load_matrix", "formats.audio_read"),
        hook(cli, "save_matrix", "formats.out_write",
             _add("formats.out_bytes", lambda a, r: os.path.getsize(a[0]))),
        hook(decoder, "encode", "encoder.encode", _add("encoder.rows", lambda a, r: r.a.rows)),
        hook(training, "encode", "encoder.encode", _add("encoder.rows", lambda a, r: r.a.rows)),
        hook(encoder, "extract_features", "encoder.extract"),
        hook(decoder, "rollout", "decoder.rollout"),
        hook(training, "rollout", "decoder.rollout"),
        hook(decoder, "embed_step", "decoder.embed"),
        hook(decoder, "decoder_layer", "decoder.layer",
             _add("decoder.layer_rows", lambda a, r: a[0].rows)),
        hook(decoder, "decode_motion", "decoder.head",
             _add("decoder.head_rows", lambda a, r: a[0].rows)),
        hook(decoder, "mh_attention", _attention_kind, _count_attention),
        hook(decoder, "decoder_self_bias", "positional.bias",
             _add("positional.bias_cells", lambda a, r: r.data.size)),
        hook(decoder, "alignment_bias", "positional.bias",
             _add("positional.bias_cells", lambda a, r: r.data.size)),
        hook(positional.BiasMatrix, "scaled", "positional.bias",
             _add("positional.bias_cells", lambda a, r: r.data.size)),
        hook(training, "rollout_loss", "autodiff.forward"),
        hook(training, "backward", "autodiff.backward",
             _add("autodiff.tape_records", lambda a, r: len(a[0].tape))),
        hook(training, "clip_global_norm", "optim.clip", _count_clip),
        hook(training, "adam_step", "optim.adam"),
        hook(training, "evaluate_rmse", "training.eval"),
    ]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per operation (request or optimizer step). Spans and
    counts inside a scope (the keep_best evaluation) are left out, except the
    scope's own time."""
    incl, self_t, calls = tracer.times()
    c = tracer.counts
    per = 1.0 / max(ops, 1)

    def ms(table, name):
        return 1e3 * table.get(name, 0.0) * per

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    layer_calls = calls.get("decoder.layer", 0)
    return {
        "formats.ckpt_load_ms": (ms(incl, "formats.ckpt_load"), "ms"),
        "formats.ckpt_bytes": (c["formats.ckpt_bytes"] * per, "B"),
        "formats.audio_read_ms": (ms(incl, "formats.audio_read"), "ms"),
        "formats.out_write_ms": (ms(incl, "formats.out_write"), "ms"),
        "formats.out_bytes": (c["formats.out_bytes"] * per, "B"),
        "encoder.encode_ms": (ms(incl, "encoder.encode"), "ms"),
        "encoder.rows": (c["encoder.rows"] * per, "count"),
        "encoder.extract_ms": (ms(incl, "encoder.extract"), "ms"),
        "decoder.rollout_ms": (ms(incl, "decoder.rollout"), "ms"),
        "decoder.layer_self_ms": (ms(self_t, "decoder.layer"), "ms"),
        "decoder.layer_rows": (c["decoder.layer_rows"] * per, "count"),
        "decoder.row_useful_share": (
            layer_calls / c["decoder.layer_rows"] if c["decoder.layer_rows"] else 0.0, "share"),
        "decoder.head_ms": (ms(incl, "decoder.head"), "ms"),
        "decoder.head_rows": (c["decoder.head_rows"] * per, "count"),
        "decoder.embed_ms": (ms(incl, "decoder.embed"), "ms"),
        "attention.self_ms": (ms(self_t, "attention.self"), "ms"),
        "attention.cross_ms": (ms(self_t, "attention.cross"), "ms"),
        "attention.calls": (c["attention.calls"] * per, "count"),
        "attention.score_cells": (c["attention.score_cells"] * per, "count"),
        "attention.cross_masked_share": (
            share("attention.cross_masked_cells", "attention.cross_cells"), "share"),
        "positional.bias_ms": (ms(self_t, "positional.bias"), "ms"),
        "positional.bias_cells": (c["positional.bias_cells"] * per, "count"),
        "autodiff.tape_records": (c["autodiff.tape_records"] * per, "count"),
        "autodiff.forward_ms": (ms(incl, "autodiff.forward"), "ms"),
        "autodiff.backward_ms": (ms(incl, "autodiff.backward"), "ms"),
        "optim.clip_ms": (ms(incl, "optim.clip"), "ms"),
        "optim.adam_ms": (ms(incl, "optim.adam"), "ms"),
        "optim.clipped_share": (share("optim.clipped", "optim.clip_calls"), "share"),
        "training.eval_ms": (ms(incl, "training.eval"), "ms"),
    }
