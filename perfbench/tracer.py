"""Span tracer for the fmbff package, installed from outside the program.

``Tracer.install()`` wraps every public function of every loaded ``fmbff``
module and rebinds the wrapper in every ``fmbff`` module namespace that holds
the original.  ``blocks``, ``model``, ``train``, ``gradcheck`` and ``cli`` use
``from .engine import ...``, so patching ``engine`` alone would miss most
calls.  Each engine op's result gets its ``_backward`` closure wrapped too,
which times the op's backward pass and attributes it to the op class, block
and model region that created the tensor.

Spans live in flat arrays in memory (start, end, label, parent) and are
written out by ``save`` when the run ends.  ``layer_metrics`` folds them into
the per-layer metrics named in ``catalog.py``.

Span kinds, by label prefix:
  ``fwd|K``            one engine op call of class K (conv2d classes, norm, ...)
  ``bwd|K|block|reg``  one backward closure of an op of class K
  ``block|B``          one FMCAB / BiFFM / ViTM / FRM forward call
  ``region|R``         a stretch of model_forward: dec1..dec4 and head
  ``fn|module.name``   any other public function
  ``unit``             one unit of workload work, opened by the workload
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

perf = time.perf_counter

# Public engine functions that build no graph node of their own.
ENGINE_NOT_OPS = {"default_dtype", "set_default_dtype", "dtype_session", "finite_diff_check"}
# Dispatchers that only forward to other (wrapped) engine ops; left unwrapped
# so the ops they call are classified on their own.
ENGINE_TRANSPARENT = {"dws_conv3x3", "elementwise", "pool", "normalize", "activation"}
# Op class of each engine function; conv2d is classified per call and every
# other op (pointwise arithmetic, activations, reductions, pools, reshapes)
# is "elementwise".
ENGINE_CLASS = {
    "bilinear_resize": "bilinear_resize",
    "dropout": "dropout",
    "concat": "concat",
    "layer_norm": "norm",
    "batch_norm": "norm",
    "matmul": "attention",
    "softmax": "attention",
}
# Ops whose inner engine calls are counted as part of the op itself.
FOLDED = {"norm"}
BLOCK_FUNCS = {"fmcab_forward", "biffm_forward", "vitm_forward", "frm_forward"}
OP_CLASSES = (
    "conv2d.dw3x3", "conv2d.1x1", "conv2d.3x3", "conv2d.pooled", "bilinear_resize",
    "dropout", "concat", "norm", "attention", "elementwise",
)
BLOCKS = ("fmcab", "biffm", "vitm", "frm_up", "frm_fuse")
REGIONS = ("dec1", "dec2", "dec3", "dec4", "head")


def conv_class(x, w, groups):
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    if h == 1 and wd == 1:
        return "conv2d.pooled"
    if groups == cin == cout and cg == 1 and (kh, kw) == (3, 3):
        return "conv2d.dw3x3"
    if groups == 1 and (kh, kw) == (1, 1):
        return "conv2d.1x1"
    if groups == 1 and (kh, kw) == (3, 3):
        return "conv2d.3x3"
    return "conv2d.other"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _fmbff_modules():
    import fmbff.cli  # noqa: F401  (loads every fmbff module)

    return {n: m for n, m in sys.modules.items() if n == "fmbff" or n.startswith("fmbff.")}


def public_functions():
    """(module name, function name, function) for every public fmbff function."""
    for modname, mod in _fmbff_modules().items():
        for name, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == modname and not name.startswith("_"):
                yield modname, name, fn


def rebind(replacements):
    """Replace each function in ``replacements`` in every fmbff namespace."""
    for mod in _fmbff_modules().values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, name, replacements[obj])


class ForwardCounter:
    """Counts top-level forward evaluations (model or block) with no timing.

    ``before``, if given, is called with no arguments ahead of each
    top-level evaluation (the benchmark runs its speed probe there).
    """

    def __init__(self, before=None):
        self.count = 0
        self.depth = 0
        self.before = before
        self.originals = {}

    def install(self):
        for modname, name, fn in public_functions():
            if (modname, name) == ("fmbff.model", "model_forward") or (
                modname == "fmbff.blocks" and name in BLOCK_FUNCS
            ):
                self.originals[fn] = self._wrap(fn)
        rebind(self.originals)
        return self

    def uninstall(self):
        rebind({w: fn for fn, w in self.originals.items()})
        self.originals = {}

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self.depth == 0:
                if self.before is not None:
                    self.before()
                self.count += 1
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1

        return wrapper


class _TimedBackward:
    """Stands in for a tensor's backward closure and records it as a span."""

    __slots__ = ("fn", "lid", "tr")

    def __init__(self, fn, lid, tr):
        self.fn = fn
        self.lid = lid
        self.tr = tr

    def __call__(self, g):
        tr = self.tr
        i = tr.open(self.lid)
        try:
            self.fn(g)
        finally:
            tr.close(i)


class Tracer:
    def __init__(self):
        self.labels = {}
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("i")
        self.stack = []
        self.ev_span = array("i")
        self.ev_key = array("i")
        self.ev_val = array("d")
        self.fold = None
        self.block = "-"
        self.region = "-"
        self.fwd_depth = 0
        self.model_span = -1
        self.region_span = -1
        self.model_params = None
        self.decoder_index = {}
        self.resize_seen = set()
        self.originals = {}
        self.Tensor = None

    # -- spans and events ------------------------------------------------

    def lid(self, name):
        i = self.labels.get(name)
        if i is None:
            i = self.labels[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, lid):
        i = len(self.label)
        stack = self.stack
        self.parent.append(stack[-1] if stack else -1)
        self.label.append(lid)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf())
        return i

    def close(self, i):
        self.end[i] = perf()
        self.stack.pop()

    def event(self, key, value, span):
        self.ev_span.append(span)
        self.ev_key.append(self.lid(key))
        self.ev_val.append(float(value))

    @contextmanager
    def span(self, name):
        i = self.open(self.lid(name))
        try:
            yield i
        finally:
            self.close(i)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap and rebind every public fmbff function; returns self."""
        from fmbff import engine

        self.Tensor = engine.Tensor
        for modname, name, fn in public_functions():
            wrapper = self._wrap(modname.split(".")[-1], name, fn)
            if wrapper is not None:
                self.originals[fn] = wrapper
        rebind(self.originals)
        return self

    def uninstall(self):
        rebind({w: fn for fn, w in self.originals.items()})
        self.originals = {}

    def _wrap(self, module, name, fn):
        if module == "engine":
            if name in ENGINE_TRANSPARENT:
                return None
            if name == "backward":
                return self._backward_wrapper(fn)
            if name not in ENGINE_NOT_OPS:
                return self._op_wrapper(name, fn)
        if module == "blocks" and name in BLOCK_FUNCS:
            return self._block_wrapper(name, fn)
        if module == "model" and name == "model_forward":
            return self._model_forward_wrapper(fn)
        if module == "model" and name == "encoder_forward":
            return self._context_wrapper(f"fn|model.{name}", fn, region="encoder")
        if module == "train" and name == "loss":
            return self._context_wrapper("fn|train.loss", fn, region="loss")
        if module == "gradcheck" and name == "run_suite":
            return self._run_suite_wrapper(fn)
        after = _AFTER.get((module, name))
        return self._fn_wrapper(self.lid(f"fn|{module}.{name}"), fn, after)

    def _fn_wrapper(self, lid, fn, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            i = tr.open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(i)
            if after is not None:
                after(tr, i, args, kwargs, result)
            return result

        return wrapper

    def _context_wrapper(self, label, fn, region):
        tr = self
        lid = self.lid(label)

        def wrapper(*args, **kwargs):
            saved = tr.region
            tr.region = region
            i = tr.open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(i)
                tr.region = saved

        return wrapper

    def _run_suite_wrapper(self, fn):
        tr = self

        def wrapper(block, *args, **kwargs):
            i = tr.open(tr.lid(f"fn|gradcheck.run_suite.{block}"))
            try:
                return fn(block, *args, **kwargs)
            finally:
                tr.close(i)

        return wrapper

    # -- engine ops ------------------------------------------------------

    def wrap_closure(self, out, cls):
        if isinstance(out, self.Tensor):
            bw = out._backward
            if bw is not None and type(bw) is not _TimedBackward:
                lid = self.lid(f"bwd|{cls}|{self.block}|{self.region}")
                out._backward = _TimedBackward(bw, lid, self)

    def _op_wrapper(self, name, fn):
        tr = self
        fixed = None if name == "conv2d" else ENGINE_CLASS.get(name, "elementwise")
        fwd_lids = {}

        def fwd_lid(cls):
            i = fwd_lids.get(cls)
            if i is None:
                i = fwd_lids[cls] = tr.lid(f"fwd|{cls}")
            return i

        def wrapper(*args, **kwargs):
            if tr.fold is not None:
                out = fn(*args, **kwargs)
                tr.wrap_closure(out, tr.fold)
                return out
            resize = None
            if fixed is None:
                w = _arg(args, kwargs, 1, "w")
                cls = conv_class(_arg(args, kwargs, 0, "x"), w, _arg(args, kwargs, 5, "groups", 1))
                if tr.model_params is not None and w is tr.model_params.head_w:
                    tr.enter_region("head")
            else:
                cls = fixed
                if name == "bilinear_resize":
                    resize = tr.classify_resize(args, kwargs)
            i = tr.open(fwd_lid(cls))
            if cls in FOLDED:
                tr.fold = cls
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.fold = None
                tr.close(i)
            if fixed is None:
                _, cg, kh, kw = w.shape
                n, cout, ho, wo = out.shape
                tr.event("gflop", 2e-9 * n * cout * ho * wo * cg * kh * kw, i)
            elif resize is not None:
                tr.event("resize.same", resize[0], i)
                tr.event("resize.useful", resize[1], i)
            tr.wrap_closure(out, cls)
            return out

        return wrapper

    def classify_resize(self, args, kwargs):
        """(same-size, useful) for one resize call.

        Useful means it changes the extent and does not repeat an earlier call
        on the same input in the same block call (inputs stay alive there, so
        their ids are not reused).
        """
        x = _arg(args, kwargs, 0, "x")
        oh, ow = _arg(args, kwargs, 1, "out_h"), _arg(args, kwargs, 2, "out_w")
        key = (id(x), oh, ow)
        same = tuple(x.shape[2:]) == (oh, ow)
        repeat = key in self.resize_seen
        self.resize_seen.add(key)
        return same, not (same or repeat)

    def _backward_wrapper(self, fn):
        tr = self
        lid = self.lid("fn|engine.backward")

        def wrapper(loss):
            nodes, bytes_, untraced = tr.graph_stats(loss)
            i = tr.open(lid)
            try:
                return fn(loss)
            finally:
                tr.close(i)
                tr.event("graph.nodes", nodes, i)
                tr.event("graph.bytes", bytes_, i)
                tr.event("graph.untraced", untraced, i)

        return wrapper

    def graph_stats(self, loss):
        """Nodes reachable from the loss, their data bytes, untraced closures."""
        seen = set()
        buffers = {}
        untraced = 0
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            data = node.data
            base = data
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            buffers[id(base)] = getattr(base, "nbytes", data.nbytes)
            if node._backward is not None and type(node._backward) is not _TimedBackward:
                untraced += 1
            stack.extend(node._parents)
        return len(seen), sum(buffers.values()), untraced

    # -- blocks and model regions ---------------------------------------

    def _block_wrapper(self, name, fn):
        tr = self
        fixed = {"fmcab_forward": "fmcab", "biffm_forward": "biffm", "vitm_forward": "vitm"}.get(name)
        lids = {}

        def wrapper(*args, **kwargs):
            if fixed is None:
                params = _arg(args, kwargs, 1, "params")
                block = "frm_up" if params.upsample else "frm_fuse"
                if tr.model_params is not None and block == "frm_up":
                    dec = tr.decoder_index.get(id(params))
                    if dec is not None:
                        tr.enter_region(f"dec{dec}")
            else:
                block = fixed
            lid = lids.get(block)
            if lid is None:
                lid = lids[block] = tr.lid(f"block|{block}")
            saved = tr.block
            tr.block = block
            tr.resize_seen.clear()
            top = tr.fwd_depth == 0
            tr.fwd_depth += 1
            i = tr.open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(i)
                tr.fwd_depth -= 1
                tr.block = saved
                if top:
                    tr.event("forward_evals", 1, i)

        return wrapper

    def _model_forward_wrapper(self, fn):
        tr = self
        lid = self.lid("fn|model.model_forward")

        def wrapper(f_in, params, *args, **kwargs):
            saved = (tr.model_params, tr.model_span, tr.region_span, tr.region)
            tr.model_params = params
            tr.decoder_index = {id(b.frm_up): k + 1 for k, b in enumerate(params.decoder)}
            tr.resize_seen.clear()
            top = tr.fwd_depth == 0
            tr.fwd_depth += 1
            i = tr.open(lid)
            tr.model_span, tr.region_span = i, -1
            try:
                return fn(f_in, params, *args, **kwargs)
            finally:
                if tr.region_span >= 0:
                    tr.close(tr.region_span)
                tr.close(i)
                tr.fwd_depth -= 1
                tr.model_params, tr.model_span, tr.region_span, tr.region = saved
                if top:
                    tr.event("forward_evals", 1, i)

        return wrapper

    def enter_region(self, name):
        """Start model region ``name`` when called directly from model_forward."""
        top = self.stack[-1] if self.stack else -1
        if top not in (self.model_span, self.region_span) or top < 0:
            return
        if self.region_span >= 0:
            self.close(self.region_span)
        self.region = name
        self.region_span = self.open(self.lid(f"region|{name}"))

    # -- output ----------------------------------------------------------

    def arrays(self):
        n = len(self.label)
        end = np.frombuffer(self.end, dtype=np.float64)[:n].copy()
        return {
            "start": np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
            "end": end,
            "label": np.frombuffer(self.label, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "ev_span": np.frombuffer(self.ev_span, dtype=np.int32).copy(),
            "ev_key": np.frombuffer(self.ev_key, dtype=np.int32).copy(),
            "ev_val": np.frombuffer(self.ev_val, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write every span and event to ``path`` (.npz) with the label table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def units(self, unit_label="unit"):
        """Span index -> index of its enclosing ``unit`` span (-1 if none)."""
        lid = self.labels.get(unit_label, -2)
        unit = array("i")
        label, parent = self.label, self.parent
        for i in range(len(label)):
            if label[i] == lid:
                unit.append(i)
            else:
                p = parent[i]
                unit.append(unit[p] if p >= 0 else -1)
        return np.frombuffer(unit, dtype=np.int32).copy()

    def layer_metrics(self, groups=None):
        """Per-layer metric totals; one dict per group of spans.

        ``groups`` maps each span to a group id (e.g. from ``units``); spans
        in group -1 are dropped.  Without it all spans form one group.
        """
        a = self.arrays()
        n = len(a["label"])
        if groups is None:
            groups = np.zeros(n, dtype=np.int32)
        keys = sorted(set(int(g) for g in groups) - {-1})
        return [_metrics_for(self.names, a, groups == g) for g in keys]


def _after_save_checkpoint(tr, i, args, kwargs, result):
    tr.event("checkpoint_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")), i)


def _after_write_dataset(tr, i, args, kwargs, result):
    total = 0
    for dirpath, _dirs, files in os.walk(_arg(args, kwargs, 0, "root")):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    tr.event("dataset_bytes", total, i)


def _after_evaluate(tr, i, args, kwargs, result):
    tr.event("evaluate_images", len(_arg(args, kwargs, 0, "pred_by_id")), i)


_AFTER = {
    ("train", "save_checkpoint"): _after_save_checkpoint,
    ("data", "write_dataset"): _after_write_dataset,
    ("metrics", "evaluate"): _after_evaluate,
}


def _metrics_for(names, a, mask):
    """Fold one group's spans and events into the catalogue's per-layer names."""
    dur = a["end"] - a["start"]
    label, parent = a["label"], a["parent"]
    idx = np.nonzero(mask)[0]
    lab = label[idx]
    d = dur[idx]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_d = (dur - child)[idx]

    by_label_dur = np.bincount(lab, weights=d, minlength=len(names))
    by_label_n = np.bincount(lab, minlength=len(names))
    by_label_self = np.bincount(lab, weights=self_d, minlength=len(names))
    lid = {name: i for i, name in enumerate(names)}

    def total(name):
        i = lid.get(name)
        return float(by_label_dur[i]) if i is not None else 0.0

    def count(name):
        i = lid.get(name)
        return int(by_label_n[i]) if i is not None else 0

    bwd_parts = [(i, name.split("|")[1:]) for i, name in enumerate(names) if name.startswith("bwd|")]

    def bwd(pred):
        return float(sum(by_label_dur[i] for i, parts in bwd_parts if pred(*parts)))

    ev_mask = np.zeros(len(a["ev_span"]), dtype=bool)
    valid = a["ev_span"] >= 0
    ev_mask[valid] = mask[a["ev_span"][valid]]
    ev_key, ev_val, ev_span = a["ev_key"][ev_mask], a["ev_val"][ev_mask], a["ev_span"][ev_mask]

    def ev(key, how=np.sum, where=None):
        i = lid.get(key)
        sel = ev_key == i
        if where is not None:
            sel &= np.isin(label[ev_span], [lid[w] for w in where if w in lid])
        return float(how(ev_val[sel])) if sel.any() else 0.0

    m = {}
    for cls in OP_CLASSES:
        m[f"engine.{cls}.fwd_s"] = total(f"fwd|{cls}")
        m[f"engine.{cls}.bwd_s"] = bwd(lambda c, b, r, cls=cls: c == cls)
        m[f"engine.{cls}.calls"] = count(f"fwd|{cls}")
    for cls in ("dw3x3", "1x1", "3x3"):
        m[f"engine.conv2d.{cls}.gflop"] = ev("gflop", where=[f"fwd|conv2d.{cls}"])
    m["engine.bilinear_resize.useful"] = ev("resize.useful")
    m["engine.bilinear_resize.same_size"] = ev("resize.same")
    i = lid.get("fn|engine.backward")
    m["engine.backward.self_s"] = float(by_label_self[i]) if i is not None else 0.0
    m["engine.backward.nodes"] = ev("graph.nodes")
    m["engine.backward.untraced"] = ev("graph.untraced")
    m["engine.graph_mb"] = ev("graph.bytes", np.max) / 2**20

    for b in BLOCKS:
        m[f"blocks.{b}.fwd_s"] = total(f"block|{b}")
        m[f"blocks.{b}.bwd_s"] = bwd(lambda c, blk, r, b=b: blk == b)
        m[f"blocks.{b}.calls"] = count(f"block|{b}")

    enc = lid.get("fn|model.encoder_forward")
    fm = lid.get("block|fmcab")
    enc_in = np.zeros(0)
    if enc is not None and fm is not None:
        under = (lab == fm) & (parent[idx] >= 0)
        under &= label[np.maximum(parent[idx], 0)] == enc
        enc_in = d[under]
    m["model.encoder.fwd_s"] = total("fn|model.encoder_forward") - float(enc_in.sum())
    m["model.encoder.bwd_s"] = bwd(lambda c, blk, r: r == "encoder" and blk == "-")
    for r in REGIONS:
        m[f"model.{r}.fwd_s"] = total(f"region|{r}")
        if r != "head":
            m[f"model.{r}.bwd_s"] = bwd(lambda c, blk, reg, r=r: reg == r)

    m["train.loss.fwd_s"] = total("fn|train.loss")
    m["train.loss.bwd_s"] = bwd(lambda c, blk, r: r == "loss")
    m["train.backward_s"] = total("fn|engine.backward")
    m["train.adam_step_s"] = total("fn|train.adam_step")
    m["train.validation_dice_s"] = total("fn|train.validation_dice")
    epochs = count("fn|train.validation_dice")
    m["train.epoch_s"] = total("fn|train.train") / epochs if epochs else 0.0
    m["train.save_checkpoint_s"] = total("fn|train.save_checkpoint")
    m["train.checkpoint_bytes"] = ev("checkpoint_bytes")
    m["train.load_checkpoint_s"] = total("fn|train.load_checkpoint")

    m["data.generate_synthetic_s"] = total("fn|data.generate_synthetic")
    m["data.write_dataset_s"] = total("fn|data.write_dataset")
    m["data.dataset_bytes"] = ev("dataset_bytes")
    m["data.load_dataset_s"] = total("fn|data.load_dataset")
    m["metrics.evaluate_s"] = total("fn|metrics.evaluate")
    m["metrics.evaluate.images"] = ev("evaluate_images")
    for cmd in ("synth", "train", "eval", "predict"):
        m[f"cli.{cmd}_s"] = total(f"fn|cli.cmd_{cmd}")
    for b in ("fmcab", "biffm", "vitm", "frm", "model"):
        m[f"gradcheck.{b}_s"] = total(f"fn|gradcheck.run_suite.{b}")
    m["gradcheck.forward_evals"] = ev("forward_evals")
    return m


def derive(layers):
    """Turn merged totals into ratios; call once after summing or taking medians."""
    calls = layers["engine.bilinear_resize.calls"]
    useful = layers.pop("engine.bilinear_resize.useful")
    layers["engine.bilinear_resize.useful_share"] = useful / calls if calls else 0.0
    return layers
