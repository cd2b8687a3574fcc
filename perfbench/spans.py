"""Outside-in tracing of one distillnet CLI process, and the per-layer metrics.

Run as a script, this module replaces the entry points of each distillnet
module with timing wrappers, runs ``distillnet.cli.main`` on the remaining
arguments, and writes the spans it recorded as JSON when the verb ends:

    python3 perfbench/spans.py --out spans.json -- train-mentor --config x.cfg

The program itself is not edited. Wrappers go where each function is looked
up, not only where it is defined, because the modules import each other's
functions by name (``cli.evaluate``, ``pipeline.train``, ...).

A span is ``[id, parent_id, name, start_ns, end_ns, attr]``; parent 0 is the
process. ``attr`` carries a per-call count: images for network forwards,
computed FLOPs for conv, computed bytes moved for max-pool, bytes for file
writes, and a model/test-set key for evaluation calls.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time

LAYER_KINDS = ("c", "mp", "fc", "relu", "s")
CLI_VERBS = ("split", "train-mentor", "label", "train-student", "baseline",
             "eval", "confusion")

# (module, attribute, span name) for plain functions: each name through
# which the CLI stages reach a layer, patched in the module that looks it up.
FUNCTION_SPANS = (
    ("pipeline", "prepare_data", "data.prepare"),
    ("pipeline", "load_idx", "data.decode"),
    ("pipeline", "load_cifar", "data.decode"),
    ("pipeline", "gen_synthetic_split", "data.decode"),
    ("pipeline", "gen_synthetic", "data.decode"),
    ("pipeline", "standardize_per_channel", "data.standardize"),
    ("pipeline", "resolve_split", "splitting.resolve"),
    ("pipeline", "build_student_pool", "splitting.pool"),
    ("pipeline", "train", "training.loop"),
    ("training", "cross_entropy", "training.loss"),
    ("training", "sgd_step", "training.sgd"),
    ("training", "_test_metrics", "training.test_eval"),
    ("pipeline", "generate_soft_labels", "pipeline.label"),
    ("pipeline", "image_payload_checksum", "pipeline.checksum"),
    ("pipeline", "save_checkpoint", "pipeline.ckpt_save"),
    ("pipeline", "load_checkpoint", "pipeline.ckpt_load"),
    ("pipeline", "save_soft_labels", "pipeline.slbl_io"),
    ("pipeline", "load_soft_labels", "pipeline.slbl_io"),
    ("report", "write_summary", "report.write"),
    ("report", "write_epochs", "report.write"),
    ("report", "write_confusion", "report.write"),
)


class Recorder:
    """In-memory span list plus the stack of open spans (one thread)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.spans = []
        self._open = [0]
        self._clock = clock

    def wrap(self, fn, label):
        """Time every call of fn. label(*args, **kwargs) -> (name, attr)."""
        spans, open_ids, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, attr = label(*args, **kwargs)
            span = [len(spans) + 1, open_ids[-1], name, 0, 0, attr]
            spans.append(span)
            open_ids.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_ids.pop()

        return wrapper


def _named(name):
    return lambda *args, **kwargs: (name, None)


def _conv_flops(layer, n, h, w):
    """2*M*K*F multiply-adds of the im2col GEMM for n images of h x w."""
    k, p = layer.kernel, layer.pad
    m = n * (h + 2 * p - k + 1) * (w + 2 * p - k + 1)
    return 2 * m * layer.in_channels * k * k * layer.out_channels


def _layer_forward_label(kind):
    def label(layer, x, train, rng):
        name = f"layers.{kind}.fwd_{'train' if train else 'eval'}"
        if kind == "c":
            return name, _conv_flops(layer, x.shape[0], x.shape[2], x.shape[3])
        if kind == "mp":
            n, c, h, w = x.shape
            out = n * c * (h // layer.window) * (w // layer.window)
            return name, x.nbytes + out * x.itemsize
        return name, None

    return label


def _layer_backward_label(kind):
    def label(layer, dy):
        name = f"layers.{kind}.bwd"
        if kind == "c":
            n, _, oh, ow = dy.shape
            k, p = layer.kernel, layer.pad
            # weight-gradient GEMM plus input-gradient GEMM, same size each
            return name, 2 * _conv_flops(layer, n, oh - 2 * p + k - 1, ow - 2 * p + k - 1)
        if kind == "mp" and layer.cache is not None:
            n, c, h, w = layer.cache[1]
            return name, dy.nbytes + n * c * h * w * dy.itemsize
        return name, None

    return label


def _stack_forward_label(stack, x):
    return f"network.fwd_{stack.mode}", int(x.shape[0])


def _model_key(stack, test_set, *args, **kwargs):
    digest = hashlib.blake2b(digest_size=8)
    for arr in stack.parameters():
        digest.update(arr.tobytes())
    return f"{stack.arch}:{digest.hexdigest()}:{test_set.n}"


def install(recorder):
    """Wrap the distillnet entry points in place; returns the cli module."""
    from distillnet import cli, layers, network, pipeline, report, splitting, training

    modules = {"pipeline": pipeline, "training": training, "report": report}
    for verb in CLI_VERBS:
        attr = "stage_" + verb.replace("-", "_")
        setattr(cli, attr, recorder.wrap(getattr(cli, attr), _named(f"cli.{verb}")))
    for module, attr, name in FUNCTION_SPANS:
        mod = modules[module]
        setattr(mod, attr, recorder.wrap(getattr(mod, attr), _named(name)))
    cli.evaluate = recorder.wrap(
        cli.evaluate, lambda *a, **k: ("evaluation.evaluate", _model_key(*a, **k)))
    cli.confusion_matrix = recorder.wrap(
        cli.confusion_matrix, lambda *a, **k: ("evaluation.confusion", _model_key(*a, **k)))

    def write_bytes_label(path, data):
        return "fileio.write", len(data)

    def write_text_label(path, text):
        return "fileio.write", len(text.encode("utf-8"))

    pipeline.atomic_write_bytes = recorder.wrap(pipeline.atomic_write_bytes, write_bytes_label)
    for mod in (report, splitting):
        mod.atomic_write_text = recorder.wrap(mod.atomic_write_text, write_text_label)

    stack = network.LayerStack
    stack.forward = recorder.wrap(stack.forward, _stack_forward_label)
    stack.backward = recorder.wrap(stack.backward, _named("network.bwd"))
    for cls in vars(layers).values():
        if isinstance(cls, type) and issubclass(cls, layers.Layer) and cls is not layers.Layer:
            cls.forward = recorder.wrap(cls.forward, _layer_forward_label(cls.kind))
            cls.backward = recorder.wrap(cls.backward, _layer_backward_label(cls.kind))
    return cli


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """{span id: duration minus the durations of its direct children}, in ns."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1]:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one pipeline run from its spans (all processes).

    Times are inclusive span time in seconds, except ``network.*_s`` which
    are self time (the stack's own work, without its layers);
    ``layers.<kind>.calls`` counts forward and backward calls. Ids must be
    unique across the list.
    """
    own = self_times(spans)
    total, selft, calls, attrs = {}, {}, {}, {}
    keys = []
    for s in spans:
        name = s[2]
        total[name] = total.get(name, 0) + s[4] - s[3]
        selft[name] = selft.get(name, 0) + own[s[0]]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(s[5], str):
            keys.append(s[5])
        elif s[5] is not None:
            attrs[name] = attrs.get(name, 0) + s[5]

    def secs(table, *names):
        return sum(table.get(n, 0) for n in names) / 1e9

    def count(table, *names):
        return sum(table.get(n, 0) for n in names)

    m = {}
    for verb in CLI_VERBS:
        m[f"cli.{verb.replace('-', '_')}_s"] = secs(total, f"cli.{verb}")
    for kind in LAYER_KINDS:
        phases = ("fwd_train", "fwd_eval") + (() if kind == "s" else ("bwd",))
        for phase in phases:
            m[f"layers.{kind}.{phase}_s"] = secs(selft, f"layers.{kind}.{phase}")
        m[f"layers.{kind}.calls"] = count(calls, *(f"layers.{kind}.{p}" for p in phases))
    conv = [f"layers.c.{p}" for p in ("fwd_train", "fwd_eval", "bwd")]
    pool = [f"layers.mp.{p}" for p in ("fwd_train", "fwd_eval", "bwd")]
    conv_s, pool_s = secs(selft, *conv), secs(selft, *pool)
    m["layers.c.gflop_per_s"] = count(attrs, *conv) / 1e9 / conv_s if conv_s else 0.0
    m["layers.mp.gb_per_s"] = count(attrs, *pool) / 1e9 / pool_s if pool_s else 0.0
    m["network.fwd_train_s"] = secs(selft, "network.fwd_train")
    m["network.fwd_eval_s"] = secs(selft, "network.fwd_eval")
    m["network.bwd_s"] = secs(selft, "network.bwd")
    m["network.fwd_eval_img"] = count(attrs, "network.fwd_eval")
    m["training.sgd_s"] = secs(total, "training.sgd")
    m["training.loss_s"] = secs(total, "training.loss")
    m["training.test_eval_s"] = secs(total, "training.test_eval")
    m["training.batches"] = count(calls, "training.sgd")
    m["data.prepare_s"] = secs(total, "data.prepare")
    m["data.prepare_calls"] = count(calls, "data.prepare")
    m["data.decode_s"] = secs(total, "data.decode")
    m["data.standardize_s"] = secs(total, "data.standardize")
    m["splitting.resolve_s"] = secs(total, "splitting.resolve")
    m["splitting.pool_s"] = secs(total, "splitting.pool")
    m["pipeline.label_s"] = secs(total, "pipeline.label")
    m["pipeline.checksum_s"] = secs(total, "pipeline.checksum")
    m["pipeline.checksum_calls"] = count(calls, "pipeline.checksum")
    m["pipeline.ckpt_save_s"] = secs(total, "pipeline.ckpt_save")
    m["pipeline.ckpt_load_s"] = secs(total, "pipeline.ckpt_load")
    m["pipeline.ckpt_loads"] = count(calls, "pipeline.ckpt_load")
    m["pipeline.slbl_io_s"] = secs(total, "pipeline.slbl_io")
    m["evaluation.evaluate_s"] = secs(total, "evaluation.evaluate")
    m["evaluation.confusion_s"] = secs(total, "evaluation.confusion")
    m["evaluation.forward_reuse_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    m["report.write_s"] = secs(total, "report.write")
    m["fileio.bytes_written"] = count(attrs, "fileio.write")
    m["fileio.write_s"] = secs(total, "fileio.write")
    return m


def merge(span_lists):
    """Concatenate per-process span lists, renumbering ids to stay unique."""
    out, offset = [], 0
    for spans in span_lists:
        for s in spans:
            out.append([s[0] + offset, s[1] + offset if s[1] else 0, *s[2:]])
        offset += len(spans)
    return out


def median_metrics(per_rep):
    """Median of each metric over a list of {name: value} dicts."""
    return {name: statistics.median(d[name] for d in per_rep) for name in per_rep[0]}


def main(argv):
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: spans.py --out FILE -- VERB [distillnet args]", file=sys.stderr)
        return 1
    recorder = Recorder()
    cli = install(recorder)
    code = cli.main(argv[3:])
    with open(argv[1], "w", encoding="utf-8") as f:
        json.dump(recorder.spans, f, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
