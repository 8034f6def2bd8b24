"""Outside-in tracer for the vortexlab modules.

The tracer wraps every public function of every ``vortexlab`` module at each
place the function object is bound: module globals, dictionaries held in
module globals (``harness._STAGE_FUNCS``), default arguments of functions and
methods (``nonlinearity=vorticity_nonlinearity``), plus ``numpy.fft.fftn`` and
``numpy.fft.ifftn``.  A binding that is missed would make its counts read
zero, so ``install`` returns the list of bindings it rewrote and the self-test
checks the ones that matter.

Spans ``[id, parent, name, start, end]`` stay in memory and are written once,
as arrays with the run id in the header, when the traced process ends.  FFTs are counted and timed but get no span:
they are numpy calls, not a vortexlab layer, and 20k spans per run would
mostly measure the tracer.

The same rebinding code substitutes one function for another everywhere it
is bound (``substitute``); the self-test uses it to run a solver whose
nonlinearity is ``zero_nonlinearity``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from collections import Counter

import numpy as np

MODULES = ("roughpath", "spectral", "transform", "solver", "verifier", "harness", "cli")
# Methods wrapped in addition to the module-level functions.
METHODS = {"transform": {"TransformProvider": ("at_index",)}}


def _modules():
    return [importlib.import_module(f"vortexlab.{m}") for m in MODULES]


def _rebind(mapping: dict) -> list[str]:
    """Replace every binding of each key of ``mapping`` by its value.

    ``mapping`` is keyed by ``id`` of the original object and holds
    ``(original, replacement)`` pairs.  Returns a description of each binding
    that was rewritten.
    """
    done = []

    def swap(obj):
        hit = mapping.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    def fix_defaults(fn, where):
        defaults = getattr(fn, "__defaults__", None)
        if defaults:
            new = tuple(swap(d) or d for d in defaults)
            if any(a is not b for a, b in zip(new, defaults)):
                fn.__defaults__ = new
                done.append(f"default:{where}")
        kw = getattr(fn, "__kwdefaults__", None)
        if kw:
            for key, value in kw.items():
                rep = swap(value)
                if rep is not None:
                    kw[key] = rep
                    done.append(f"kwdefault:{where}.{key}")

    for mod in _modules():
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            rep = swap(obj)
            if rep is not None:
                setattr(mod, name, rep)
                done.append(f"global:{short}.{name}")
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    rep = swap(value)
                    if rep is not None:
                        obj[key] = rep
                        done.append(f"dict:{short}.{name}[{key!r}]")
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                fix_defaults(obj, f"{short}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        fix_defaults(member, f"{short}.{name}.{attr}")
    return sorted(set(done))


def _resolve(spec: str):
    module, name = spec.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


def substitute(old_spec: str, new_spec: str) -> list[str]:
    """Bind ``new_spec`` wherever ``old_spec`` is bound (dotted names)."""
    old, new = _resolve(old_spec), _resolve(new_spec)
    return _rebind({id(old): (old, new)})


def _fingerprint(field) -> bytes:
    # A strided sample of the coefficients tells distinct fields apart at a
    # fraction of the cost of hashing all of them.
    return field.coef.reshape(-1)[::61].tobytes()


class Tracer:
    """Span and counter recorder for one traced process (single thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.fft_s = 0.0
        self.verify_inputs: set[bytes] = set()
        self.provider_keys: set[tuple[int, int]] = set()
        self.bindings: list[str] = []

    def _wrap(self, name: str, fn, pre=None, post=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                active[name] -= 1
            if post is not None:
                post(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_fft(self, fn):
        counts = self.counts
        clock = time.perf_counter
        tracer = self
        label = fn.__name__

        def counted(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            tracer.fft_s += clock() - t0
            axes = kwargs.get("axes")
            shape = out.shape
            axes = range(len(shape)) if axes is None else axes
            n = math.prod(shape[ax] for ax in axes)
            batch = out.size // n
            counts[f"fft.{label}"] += 1
            if tracer.active["spectral.vorticity_nonlinearity"]:
                counts[f"fft.{label}.in_nonlinearity"] += 1
            # Radix-2 estimate 5 N log2 N per complex transform; bytes are the
            # input read once and the output written once.
            counts["fft.flop"] += int(5 * n * math.log2(n) * batch) if n > 1 else 0
            counts["fft.bytes"] += int(getattr(a, "nbytes", 0) + out.nbytes)
            return out

        return functools.wraps(fn)(counted)

    # Hooks that turn arguments or results into counts.

    def _files_bytes(self, key):
        def post(args, result):
            paths = result if isinstance(result, (tuple, list)) else (result,)
            self.counts[key] += sum(os.path.getsize(p) for p in paths)

        return post

    def _picard_post(self, args, result):
        self.counts["solver.picard_iterations"] += int(result.iterations)

    def _heat_post(self, args, result):
        if self.active["solver.picard_solve"]:
            self.counts["solver.duhamel_terms"] += 1

    def _nonlinearity_pre(self, args):
        if self.active["harness.stage_verify"]:
            self.counts["verifier.nonlinearity_calls"] += 1
            self.verify_inputs.add(_fingerprint(args[0]))

    def _provider_pre(self, args):
        self.provider_keys.add((id(args[0]), int(args[1])))

    def install(self) -> list[str]:
        """Wrap every public vortexlab function at every binding."""
        hooks = {
            "roughpath.save_rough_path": (None, self._files_bytes("roughpath.store_bytes")),
            "spectral.save_field": (None, self._files_bytes("spectral.field_bytes")),
            "spectral.heat_semigroup": (None, self._heat_post),
            "spectral.vorticity_nonlinearity": (self._nonlinearity_pre, None),
            "solver.picard_solve": (None, self._picard_post),
            "transform.TransformProvider.at_index": (self._provider_pre, None),
        }
        mapping = {}
        for mod in _modules():
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    label = f"{short}.{name}"
                    pre, post = hooks.get(label, (None, None))
                    mapping[id(obj)] = (obj, self._wrap(label, obj, pre, post))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    label = f"{short}.{cls_name}.{meth}"
                    pre, post = hooks.get(label, (None, None))
                    setattr(cls, meth, self._wrap(label, getattr(cls, meth), pre, post))
                    self.bindings.append(f"method:{label}")
        self.bindings += _rebind(mapping)
        for name in ("fftn", "ifftn"):
            setattr(np.fft, name, self._wrap_fft(getattr(np.fft, name)))
            self.bindings.append(f"global:numpy.fft.{name}")
        return self.bindings

    def write(self, path, **meta) -> None:
        """Write the spans as arrays (one row per span; the row is the span
        id) with the counts and ``meta`` as a JSON header.  Binary arrays keep
        the write short, so it adds little to the traced process's wall time."""
        counts = dict(self.counts)
        counts["fft.seconds"] = self.fft_s
        counts["verifier.distinct_inputs"] = len(self.verify_inputs)
        counts["transform.provider_keys"] = len(self.provider_keys)
        names = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        header = dict(meta, run_id=self.run_id, bindings=self.bindings, counts=counts, names=names)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                header=np.array(json.dumps(header)),
                parent=np.array([s[1] for s in self.spans], dtype=np.int64),
                name=np.array([index[s[2]] for s in self.spans], dtype=np.int64),
                start=np.array([s[3] for s in self.spans], dtype=np.float64),
                end=np.array([s[4] for s in self.spans], dtype=np.float64),
            )


def read_trace(path) -> dict:
    """A written trace: its header fields plus the span arrays."""
    with np.load(path) as data:
        trace = json.loads(str(data["header"]))
        for key in ("parent", "name", "start", "end"):
            trace[key] = data[key]
    return trace


# ---------------------------------------------------------------------------
# Aggregation of written traces into per-layer metrics.

# Metric -> functions whose outermost spans it sums.
TIMED = {
    "roughpath.sample_s": ("roughpath.sample_brownian",),
    "roughpath.enhance_s": ("roughpath.enhance",),
    "roughpath.store_write_s": ("roughpath.save_rough_path",),
    "roughpath.store_read_s": ("roughpath.load_rough_path",),
    "roughpath.rough_integral_s": ("roughpath.rough_integral",),
    "spectral.nonlinearity_s": ("spectral.vorticity_nonlinearity",),
    "spectral.inner_product_s": ("spectral.inner_product",),
    "spectral.lp_norm_s": ("spectral.lp_norm",),
    "spectral.heat_semigroup_s": ("spectral.heat_semigroup",),
    "spectral.field_write_s": ("spectral.save_field",),
    "transform.bound_series_s": ("transform.bound_series",),
    "transform.exponent_s": ("transform.transform_exponent",),
    "solver.picard_s": ("solver.picard_solve",),
    "solver.weighted_norm_s": ("solver.weighted_sup_norm", "solver.weighted_distance"),
    "verifier.observable_s": ("verifier.build_observable",),
    "verifier.weak_residual_s": ("verifier.rough_weak_residual",),
    "verifier.quotients_s": ("verifier.remainder_quotients",),
    "verifier.taylor_s": ("verifier.taylor_rate",),
    "verifier.bracket_s": ("verifier.bracket_identities",),
    "verifier.continuity_s": ("verifier.integrand_continuity", "verifier.observable_continuity"),
    "harness.save_trajectory_s": ("harness.save_trajectory",),
    "harness.load_config_s": ("harness.load_config",),
}
CALLS = {
    "roughpath.rough_integral_calls": "roughpath.rough_integral",
    "spectral.nonlinearity_calls": "spectral.vorticity_nonlinearity",
    "spectral.inner_product_calls": "spectral.inner_product",
    "spectral.heat_semigroup_calls": "spectral.heat_semigroup",
    "transform.exponent_calls": "transform.transform_exponent",
    "transform.provider_calls": "transform.TransformProvider.at_index",
}
SELF = {"solver.picard_self_s": "solver.picard_solve"}
STAGES = ("enhance", "gate", "simulate", "verify")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced CLI process."""
    parent, name = trace["parent"].tolist(), trace["name"].tolist()
    duration = trace["end"] - trace["start"]
    ids = {n: i for i, n in enumerate(trace["names"])}

    def spans_named(names):
        wanted = {ids[n] for n in names if n in ids}
        return wanted, [i for i, k in enumerate(name) if k in wanted]

    def outer_ancestor(i, wanted):
        p = parent[i]
        while p >= 0 and name[p] not in wanted:
            p = parent[p]
        return p

    def outermost(names):
        wanted, rows = spans_named(names)
        return float(sum(duration[i] for i in rows if outer_ancestor(i, wanted) < 0))

    has_parent = trace["parent"] >= 0
    child_time = np.bincount(
        trace["parent"][has_parent], weights=duration[has_parent], minlength=len(parent)
    )

    out: dict[str, float] = {}
    for metric, names in TIMED.items():
        out[metric] = outermost(names)
    for metric, fn in CALLS.items():
        out[metric] = len(spans_named([fn])[1])
    for metric, fn in SELF.items():
        out[metric] = float(sum(duration[i] - child_time[i] for i in spans_named([fn])[1]))
    # A stage called from inside another stage (simulate runs gate when no
    # gate report exists) is counted once, under the inner stage.
    stage_ids, stage_rows = spans_named([f"harness.stage_{st}" for st in STAGES])
    nested = Counter()
    for i in stage_rows:
        p = outer_ancestor(i, stage_ids)
        if p >= 0:
            nested[p] += duration[i]
    for st in STAGES:
        rows = spans_named([f"harness.stage_{st}"])[1]
        out[f"harness.{st}_s"] = float(sum(duration[i] - nested[i] for i in rows))
    counts = trace["counts"]
    out["spectral.fft_calls"] = counts.get("fft.fftn", 0) + counts.get("fft.ifftn", 0)
    out["spectral.ifft_calls"] = counts.get("fft.ifftn", 0)
    out["spectral.nonlinearity_fftn_calls"] = counts.get("fft.fftn.in_nonlinearity", 0)
    out["spectral.nonlinearity_ifftn_calls"] = counts.get("fft.ifftn.in_nonlinearity", 0)
    out["spectral.fft_s"] = counts.get("fft.seconds", 0.0)
    out["spectral.fft_flop_computed"] = counts.get("fft.flop", 0)
    out["spectral.fft_bytes_computed"] = counts.get("fft.bytes", 0)
    out["roughpath.store_bytes"] = counts.get("roughpath.store_bytes", 0)
    out["spectral.field_bytes"] = counts.get("spectral.field_bytes", 0)
    out["solver.picard_iterations"] = counts.get("solver.picard_iterations", 0)
    out["solver.duhamel_terms"] = counts.get("solver.duhamel_terms", 0)
    out["verifier.nonlinearity_calls"] = counts.get("verifier.nonlinearity_calls", 0)
    out["verifier.distinct_drift_nodes"] = counts.get("verifier.distinct_inputs", 0)
    out["transform.provider_cached"] = counts.get("transform.provider_keys", 0)
    main = trace["main"]
    out["harness.cli_s"] = (
        main["end"]
        - main["start"]
        - out["harness.load_config_s"]
        - sum(out[f"harness.{st}_s"] for st in STAGES)
    )
    out["harness.startup_s"] = main["start"] - trace["spawned"]
    out["trace.install_s"] = main["install_s"]
    return out


def combine(per_process: list[dict[str, float]]) -> dict[str, float]:
    """Sum the metrics of the CLI processes that make up one sample and add
    the ratios, computed from the summed counts."""
    total: Counter = Counter()
    for m in per_process:
        total.update(m)
    out = dict(total)
    calls = out["transform.provider_calls"]
    out["transform.provider_hit_ratio"] = (
        (calls - out["transform.provider_cached"]) / calls if calls else 0.0
    )
    verify_calls = out["verifier.nonlinearity_calls"]
    out["verifier.drift_reuse_ratio"] = (
        out["verifier.distinct_drift_nodes"] / verify_calls if verify_calls else 0.0
    )
    return out
