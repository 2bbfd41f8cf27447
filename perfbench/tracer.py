"""Spans and per-op counters for the ingsl library, recorded from outside it.

``install`` replaces public functions of the ingsl modules with timing
wrappers, in every ingsl module namespace that holds them, so calls made
through ``from .x import f`` bindings are caught as well. Stage functions
record spans (name, start, end, parent span, cell id); tape ops record call
counts, forward seconds, output bytes and, through the ``backward_fn`` handed
to ``tensor.record_op``, backward seconds. All of it stays in memory until
the run ends. The library is not modified.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

from workloads import cell_id

# Ops reported by name; every other op is pooled as "other".
NAMED_OPS = (
    "spmm", "gather_rows", "take", "gather_pairs", "segment_sum", "rowwise_dot",
    "matmul", "row_l2_normalize", "row_l2_normalize_or_zero", "exp", "sigmoid", "relu",
)
OTHER_OPS = (
    "add", "sub", "mul", "transpose", "reshape", "log", "pow_const", "sum_all",
    "row_sum", "concat_cols", "concat_vec",
)
OP_KEYS = NAMED_OPS + ("other",)

# (module, function) of every stage that records a span.
STAGES = (
    ("graph", "generate_sbm"), ("graph", "normalize_entries"),
    ("gsl", "encode_structure"), ("gsl", "build_candidates"), ("gsl", "fuse_with_original"),
    ("pruning", "diversity_scores"), ("pruning", "select_threshold"), ("pruning", "prune"),
    ("pruning", "mi_loss"), ("pruning", "train_ingsl"),
    ("gnn", "gcn_forward"), ("gnn", "task_loss"), ("gnn", "adam_step"), ("gnn", "spectral_norm"),
    ("tensor", "backward"), ("tensor", "gradient_check"),
    ("analysis", "lemma1_check"), ("analysis", "lemma2_check"),
    ("cli", "run_cell"), ("cli", "run_experiment"), ("cli", "run_gradcheck_battery"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in STAGES)


def resolve(modules: dict) -> dict:
    """Look up every function the tracer wraps; fail loudly on a missing one,
    so a renamed or deleted stage breaks the benchmark instead of reading 0."""
    wanted = [(m, f) for m, f in STAGES]
    wanted += [("tensor", op) for op in NAMED_OPS + OTHER_OPS + ("record_op", "active_tape")]
    wanted += [("gnn", "flops_estimate")]
    found = {}
    for mod, name in wanted:
        fn = getattr(modules[mod], name, None)
        if not callable(fn):
            raise LookupError(f"ingsl.{mod}.{name} no longer exists; update perfbench/trace.py")
        found[f"{mod}.{name}"] = fn
    return found


class _Thread:
    """Per-thread records, so worker threads never contend on a lock."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.ops = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, fwd_s, bwd_s, bytes
        self.counts = defaultdict(float)
        self.gcn = None  # the GcnParams of the gcn_forward call in progress


class Tracer:
    # span record: [id, name, parent id, cell, start, end, taped, thread]
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self._main = self.thread()
        self.cell = None  # default cell id for spans with no parent

    def thread(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _Thread(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def open(self, st: _Thread, name: str, taped: bool, cell=None) -> list:
        # A worker thread's first span hangs under the main thread's open one.
        stack = st.stack or self._main.stack
        parent = stack[-1] if stack else None
        if cell is None:
            cell = parent[3] if parent else self.cell
        span = [next(self._ids), name, parent[0] if parent else None, cell,
                perf_counter(), None, taped, st.index]
        st.stack.append(span)
        return span

    @staticmethod
    def close(st: _Thread, span: list) -> None:
        span[5] = perf_counter()
        st.stack.pop()
        st.spans.append(span)

    def spans(self) -> list[list]:
        return sorted((s for t in self._threads for s in t.spans), key=lambda s: s[0])

    def merged(self):
        ops = defaultdict(lambda: [0, 0.0, 0.0, 0])
        counts = defaultdict(float)
        for t in self._threads:
            for k, rec in t.ops.items():
                for i, v in enumerate(rec):
                    ops[k][i] += v
            for k, v in t.counts.items():
                counts[k] += v
        return ops, counts

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans():
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "parent", "cell", "start", "end", "taped", "thread"), s
                ))) + "\n")


def _span_wrapper(tracer, name, fn, active_tape, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = tracer.thread()
        span = tracer.open(st, name, active_tape() is not None, hook.cell(args) if hook else None)
        if hook:
            hook.before(st, args)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(st, span)
            if hook:
                hook.after(st)
        if hook:
            hook.result(st, args, kwargs, out)
        return out

    return wrapper


class _Hook:
    def cell(self, args):
        """Cell id for the span, or None to inherit the parent's."""
        return None

    def before(self, st, args):
        pass

    def after(self, st):
        pass

    def result(self, st, args, kwargs, out):
        pass


class _RunCell(_Hook):
    def cell(self, args):  # run_cell(cfg, base, mode, r, seed)
        return cell_id(*args[2:5])


class _BuildCandidates(_Hook):
    def result(self, st, args, kwargs, out):
        n = out.n
        st.counts["gsl.build_candidates.sim_bytes"] += n * n * 8  # computed: n x n float64


class _Prune(_Hook):
    def result(self, st, args, kwargs, out):
        st.counts["pruning.prune.kept"] += out.nnz
        st.counts["pruning.prune.candidates"] += args[0].sparse.nnz


class _Backward(_Hook):
    def result(self, st, args, kwargs, out):
        tape = args[1] if len(args) > 1 else kwargs["tape"]
        st.counts["tensor.backward.visits"] += tape.backward_visits
        st.counts["tensor.backward.tapes"] += 1
        st.counts["tensor.tape.nodes"] += len(tape)


class _GcnForward(_Hook):
    """Counts multiply-adds of the GCN layers (classifier excluded, as in
    gnn.flops_estimate) and the estimate for the same adjacency."""

    def __init__(self, flops_estimate):
        self.flops_estimate = flops_estimate

    def before(self, st, args):
        st.gcn = args[2]

    def after(self, st):
        st.gcn = None

    def result(self, st, args, kwargs, out):
        adj, x, params = args[:3]
        dims = [x.shape[1]] + [w.shape[1] for w in params.layer_weights]
        st.counts["gnn.flops_estimate"] += self.flops_estimate(adj.nnz, dims, adj.n_rows)


def _op_wrapper(tracer, name, fn):
    key = name if name in NAMED_OPS else "other"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        st = tracer.thread()
        rec = st.ops[key]
        rec[0] += 1
        rec[1] += dt
        rec[3] += out.data.nbytes  # computed from the output array size
        if st.gcn is not None:
            if name == "matmul" and args[1] is not st.gcn.classifier:
                a, b = args[0].shape, args[1].shape
                st.counts["gnn.flops.counted"] += 2 * a[0] * a[1] * b[1]
            elif name == "spmm":
                st.counts["gnn.flops.counted"] += 2 * args[2].shape[0] * args[3].shape[1]
        return out

    return wrapper


def _record_op_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(output, inputs, backward_fn, name="custom"):
        key = name if name in NAMED_OPS else "other"

        def timed_backward(g):
            t0 = perf_counter()
            grads = backward_fn(g)
            st = tracer.thread()
            st.ops[key][2] += perf_counter() - t0
            st.counts["tensor.backward.useful"] += 1  # node received a gradient
            return grads

        return fn(output, inputs, timed_backward, name)

    return wrapper


def install(tracer: Tracer, modules: dict):
    """Swap every resolved function for its wrapper in all ingsl namespaces.
    Returns a function that puts the originals back."""
    found = resolve(modules)
    hooks = {
        "cli.run_cell": _RunCell(),
        "gsl.build_candidates": _BuildCandidates(),
        "pruning.prune": _Prune(),
        "tensor.backward": _Backward(),
        "gnn.gcn_forward": _GcnForward(found["gnn.flops_estimate"]),
    }
    active_tape = found["tensor.active_tape"]
    swap = {}
    for name in SPAN_NAMES:
        swap[id(found[name])] = _span_wrapper(tracer, name, found[name], active_tape, hooks.get(name))
    for op in NAMED_OPS + OTHER_OPS:
        swap[id(found[f"tensor.{op}"])] = _op_wrapper(tracer, op, found[f"tensor.{op}"])
    swap[id(found["tensor.record_op"])] = _record_op_wrapper(tracer, found["tensor.record_op"])
    swapped = []
    for modname, mod in list(sys.modules.items()):
        if modname == "ingsl" or modname.startswith("ingsl."):
            for attr, value in list(vars(mod).items()):
                wrapper = swap.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(mod, attr, wrapper)
                    swapped.append((mod, attr, value))

    def uninstall() -> None:
        for mod, attr, value in swapped:
            setattr(mod, attr, value)

    return uninstall


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    if name == "gnn.flops.counted":
        return "flop"
    return "count"


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append((s[4], s[5]))
    return {s[0]: (s[5] - s[4]) - _union_length(children[s[0]], s[4], s[5]) for s in spans}


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """Per-layer figures per traced repetition, named module.function.quantity."""
    spans = tracer.spans()
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    self_s, calls = defaultdict(float), defaultdict(int)
    eval_s = 0.0
    for s in spans:
        self_s[s[1]] += selfs[s[0]]
        calls[s[1]] += 1
        parent = by_id.get(s[2])
        # Eval pass: stages the training loop runs with no tape, Adam excepted.
        if parent and parent[1] == "pruning.train_ingsl" and not s[6] and s[1] != "gnn.adam_step":
            eval_s += s[5] - s[4]
    ops, counts = tracer.merged()
    m = {}
    for key in OP_KEYS:
        c, fwd, bwd, nbytes = ops[key]
        m[f"tensor.{key}.calls"] = c / reps
        m[f"tensor.{key}.fwd_s"] = fwd / reps
        m[f"tensor.{key}.bwd_s"] = bwd / reps
        m[f"tensor.{key}.bytes"] = nbytes / reps
    visits = counts["tensor.backward.visits"]
    m["tensor.backward.visits"] = visits / reps
    m["tensor.backward.useful_ratio"] = counts["tensor.backward.useful"] / visits if visits else 0.0
    tapes = counts["tensor.backward.tapes"]
    m["tensor.tape.nodes_per_epoch"] = counts["tensor.tape.nodes"] / tapes if tapes else 0.0
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = self_s[name] / reps
        m[f"{name}.calls"] = calls[name] / reps
    m["gsl.build_candidates.sim_bytes"] = counts["gsl.build_candidates.sim_bytes"] / reps
    cand = counts["pruning.prune.candidates"]
    m["pruning.prune.kept_ratio"] = counts["pruning.prune.kept"] / cand if cand else 0.0
    m["pruning.eval_pass.self_s"] = eval_s / reps
    counted = counts["gnn.flops.counted"]
    m["gnn.flops.counted"] = counted / reps
    m["gnn.flops_estimate.ratio"] = counts["gnn.flops_estimate"] / counted if counted else 0.0
    m["trace.self_sum_s"] = sum(selfs.values()) / reps
    return m
