"""Span recorder for the traced pass, installed from outside the package.

Every wrapped call records one span ``(id, parent, name, start, end)`` in
memory; nothing is written until the repetition ends. Wrappers replace the
attribute a caller looks up: where ``psgp.cli`` imported a name directly
(``from .pretrain import train``) the wrapper goes on ``psgp.cli``, and where
a module calls through another module (``mdl.encode_t``, ``ad.gelu``) it goes
on the defining module. Nothing under ``src/`` changes.

A span opened on a worker thread whose own stack is empty is parented to the
open CLI stage span, so thread-pool work is attributed to its stage. Self
time is a span's duration minus the union of the intervals its children
cover, which stays correct when children run on two threads at once.
"""
from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

# autodiff ops whose forward calls get their own span and per-layer metrics
TRACED_OPS = ("gelu", "matmul", "layer_norm", "softmax", "logdet_psd", "gather_windows")
# every autodiff op whose node carries a VJP closure; backward is split by these
GRAPH_OPS = TRACED_OPS + (
    "add", "sub", "mul", "div", "neg", "reshape", "swapaxes", "transpose",
    "tsum", "texp", "tlog", "tsqrt", "terf", "clamp_min",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stage: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None):
        stack = self._stack()
        parent = stack[-1] if stack else self.stage
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def stage_call(self, name: str, fn, *args):
        """A root span that also adopts spans from worker threads."""
        sid = self.stage = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, None, name, t0, t1))
            self.stage = None

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # --- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Span every call of ``owner.attr``; ``after(args, result)`` may count."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of a hot function without the cost of a span."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_op(self, ad, op: str) -> None:
        """Time an autodiff op's forward (if traced) and its node's VJP."""
        fn = getattr(ad, op)
        fwd_name = f"autodiff.{op}" if op in TRACED_OPS else None
        vjp_name = f"autodiff.{op}.vjp"

        def wrapper(*args, **kwargs):
            if fwd_name is None:
                out = fn(*args, **kwargs)
            else:
                out = self.call(fwd_name, fn, args, kwargs)
                self.count(f"autodiff.{op}.calls")
                if op == "matmul":
                    self.count("autodiff.matmul.flops", 2 * out.data.size * args[0].data.shape[-1])
                elif op == "gelu":
                    self.count("autodiff.gelu.elements", args[0].data.size)
            vjp = out._vjp
            if vjp is not None:
                out._vjp = lambda g: self.call(vjp_name, vjp, (g,))
            return out

        self._patch(ad, op, wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every psgp module the CLI drives."""
    from psgp import autodiff, cli, model, pretrain, stats, vectors

    local = threading.local()

    def in_loss() -> bool:
        return getattr(local, "depth", 0) > 0

    # cohort / synth / signalio, as the CLI looks them up
    tracer.wrap(cli, "generate_cohort", "synth.generate_cohort")
    tracer.wrap(cli, "load_manifest", "cohort.load_manifest")
    tracer.wrap_count(cli, "split_cohort", "cohort.split_cohort.calls")

    def read_after(args, rec):
        tracer.count("signalio.read_signal_file.calls")
        tracer.count("signalio.bytes_read", os.stat(args[0]).st_size)

    tracer.wrap(cli, "read_signal_file", "signalio.read_signal_file", read_after)
    tracer.wrap(cli, "segment_recording", "signalio.segment_recording")

    # pretrain: the loop, and the pieces of one step
    tracer.wrap(cli, "train", "pretrain.train")
    loss_fn = pretrain.total_loss_graph

    def total_loss_graph(*args, **kwargs):
        local.depth = getattr(local, "depth", 0) + 1
        try:
            return tracer.call("pretrain.total_loss_graph", loss_fn, args, kwargs)
        finally:
            local.depth -= 1
            tracer.count("pretrain.steps")

    tracer._patch(pretrain, "total_loss_graph", total_loss_graph)
    tracer.wrap(pretrain, "tcr_loss", "pretrain.tcr_loss")
    tracer.wrap(pretrain, "sample_masks", "pretrain.sample_masks")
    tracer.wrap(pretrain, "backward", "pretrain.backward")

    # model: graph builders (shared by training and inference) and I/O
    tracer.wrap(model, "stem_forward", "model.stem_forward")
    encode_fn = model.encode_t

    def encode_t(*args, **kwargs):
        target = in_loss() and not autodiff.grad_enabled()
        name = "pretrain.target_encode" if target else "model.encode_t"
        return tracer.call(name, encode_fn, args, kwargs)

    tracer._patch(model, "encode_t", encode_t)
    tracer.wrap(model, "decode_t", "model.decode_t")
    tracer.wrap(model, "pool_rows", "model.pool_rows")
    tracer.wrap(
        cli, "embed_segments", "model.embed_segments",
        lambda args, out: tracer.count("model.embed_segments.segments", len(args[0])),
    )
    tracer.wrap(cli, "load_checkpoint", "model.load_checkpoint")
    tracer.wrap(cli, "save_checkpoint", "model.save_checkpoint")

    # autodiff: forward/VJP per op, and tape size per backward
    for op in GRAPH_OPS:
        tracer.wrap_op(autodiff, op)
    topo = autodiff._topological_order

    def topological_order(root):
        order = topo(root)
        tracer.count("autodiff.tape_nodes.total", len(order))
        tracer.count("autodiff.backward.calls")
        return order

    tracer._patch(autodiff, "_topological_order", topological_order)

    # vectors
    tracer.wrap(cli, "derive_vectors", "vectors.derive_vectors")
    tracer.wrap(cli, "score_cohort", "vectors.score_cohort")
    tracer.wrap_count(vectors, "project_segment", "vectors.project_segment.calls")
    tracer.wrap(cli, "load_disease_vector", "vectors.load_disease_vector")
    tracer.wrap(cli, "save_scores", "vectors.save_scores")
    tracer.wrap(cli, "load_scores", "vectors.load_scores")

    # stats
    tracer.wrap(cli, "evaluate_grid", "stats.evaluate_grid")
    tracer.wrap(cli, "odds_ratio_report", "stats.odds_ratio_report")
    fit_fn = stats.fit_logistic

    def fit_logistic(*args, **kwargs):
        fitted = fit_fn(*args, **kwargs)
        tracer.count("stats.fit_logistic.calls")
        tracer.count("stats.fit_logistic.iterations", fitted.iterations)
        tracer.count("stats.fit_logistic.nonconverged", int(not fitted.converged))
        return fitted

    tracer._patch(stats, "fit_logistic", fit_logistic)
    tracer.wrap_count(stats, "auc", "stats.auc.calls")
    fm_fn = stats.build_feature_matrix

    def build_feature_matrix(*args, **kwargs):
        out = fm_fn(*args, **kwargs)
        tracer.count("stats.build_feature_matrix.dropped", out[2])
        return out

    tracer._patch(stats, "build_feature_matrix", build_feature_matrix)

    # report
    tracer.wrap(cli, "build_report_card", "report.build_report_card")


# --- aggregation --------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: inclusive seconds, self seconds and call count.

    Also returns, for every root span, the sum of self times over its
    subtree; with strictly nested children it equals the root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    parent_of: dict[int, int | None] = {}
    for sid, parent, _, t0, t1 in spans:
        parent_of[sid] = parent
        if parent is not None:
            children[parent].append((t0, t1))
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    subtree_self: dict[int, float] = defaultdict(float)
    for sid, _, name, t0, t1 in spans:
        self_s = (t1 - t0) - _covered(children.get(sid, []), t0, t1)
        agg = by_name[name]
        agg["s"] += t1 - t0
        agg["self_s"] += self_s
        agg["calls"] += 1
        root = sid
        while parent_of.get(root) is not None:
            root = parent_of[root]
        subtree_self[root] += self_s
    roots = {
        sid: {"name": name, "s": t1 - t0, "self_sum_s": subtree_self[sid]}
        for sid, parent, name, t0, t1 in spans
        if parent is None
    }
    return {"by_name": dict(by_name), "roots": list(roots.values())}
