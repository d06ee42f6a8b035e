"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions and class methods of ``starparadox``
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Module-level functions are replaced in every
``starparadox`` module that holds them, so names re-imported by
``claims``, ``moments``, ``posterior`` and ``cli`` are traced as well.
Per-quadrature-node helpers (``h_aux``, integrands) are left alone.

Spans are kept in compact arrays while the run lasts and written to an
``.npz`` file when it ends.  Work inside process-pool workers is not
spanned: forked workers inherit the wrappers, but a fork hook turns
recording off in the child.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute) for module-level functions
_FUNCTIONS = [
    ("cli", "starparadox.cli", "main"),
    ("model.log_pattern_prob_arrays", "starparadox.model", "log_pattern_prob_arrays"),
    ("model.zeta_inv", "starparadox.model", "zeta_inv"),
    ("tempering.fit_taylor", "starparadox.tempering", "fit_taylor"),
    ("tempering.check_condition2", "starparadox.tempering", "check_condition2"),
    ("posterior.kernel_log_values", "starparadox.posterior", "kernel_log_values"),
    ("posterior.paradox_scan", "starparadox.posterior", "paradox_scan"),
    ("posterior.tree_posterior", "starparadox.posterior", "tree_posterior"),
    ("claims.in_band_advantage", "starparadox.claims", "in_band_advantage"),
    ("claims.conditional_ratio_scan", "starparadox.claims", "conditional_ratio_scan"),
    ("moments.moment_mt", "starparadox.moments", "moment_mt"),
    ("manifest.sha256_file", "starparadox.manifest", "sha256_file"),
    ("manifest.write_csv_rows", "starparadox.manifest", "write_csv_rows"),
]

# (span name, class path, method) for methods; wrapped on every class in the
# hierarchy that defines the method itself
_METHODS = [
    ("priors.g", "starparadox.priors.Prior", "g"),
    ("priors.h", "starparadox.priors.Prior", "h"),
    ("priors.h_sat", "starparadox.priors.Prior", "h_sat"),
    ("moments.tail", "starparadox.moments.ConditionalZetaV", "tail"),
    ("manifest.add_output", "starparadox.manifest.RunManifest", "add_output"),
    ("manifest.write", "starparadox.manifest.RunManifest", "write"),
]

LAYERS = ("cli", "manifest", "model", "priors", "tempering", "posterior", "claims", "moments")


def _resolve(path: str):
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


def _prior_key(prior) -> tuple:
    return (prior.kind, tuple(sorted(prior.params().items())))


class Tracer:
    """Records spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._open = defaultdict(int)   # span name id -> number of open spans
        self.counters = defaultdict(float)
        self.keys = defaultdict(set)    # metric -> distinct keys seen
        self.discrete_params: set[tuple] = set()
        self.job = 0
        self.enabled = True
        self._patches: list[tuple] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def is_open(self, name: str) -> bool:
        return self._open[self._name_id(name)] > 0

    def _wrap(self, fn, name: str, probe):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_idx.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._open[nid] += 1
            if probe is not None:
                probe(tracer, args, kwargs)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
                tracer._open[nid] -= 1

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("starparadox") and m]
        for name, module, attr in _FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            wrapper = self._wrap(fn, name, _PROBES.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        for name, path, attr in _METHODS:
            root = _resolve(path)
            todo = [root]
            while todo:
                cls = todo.pop()
                todo.extend(cls.__subclasses__())
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], name, _PROBES.get(name)))
        kinds = _resolve("starparadox.priors.PRIOR_KINDS")
        for kind, cls in kinds.items():
            name = f"priors.sample.{kind}"
            self._patch(cls, "sample", self._wrap(cls.sample, name, _probe_sample(name)))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ---- results --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        counts = np.bincount(names, minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# probes: counters recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _probe_elems(metric: str, index: int, name: str):
    def probe(tr, args, kwargs):
        tr.counters[metric] += np.size(_arg(args, kwargs, index, name))
    return probe


def _probe_sample(name: str):
    def probe(tr, args, kwargs):
        prior = args[0]
        tr.counters[name + ".draws"] += int(_arg(args, kwargs, 2, "size"))
        if prior.kind == "discrete":
            tr.discrete_params.add((prior.a, prior.b))
    return probe


def _probe_cli(tr, args, kwargs):
    tr.job += 1


def _probe_g(tr, args, kwargs):
    if tr.is_open("tempering.fit_taylor"):
        tr.counters["tempering.fit_taylor.g_calls"] += 1


def _probe_h_sat(tr, args, kwargs):
    z = float(_arg(args, kwargs, 1, "z"))
    tr.keys["priors.h_sat"].add((tr.job, _prior_key(args[0]), z))


def _probe_sampling_prior(tr, args, kwargs):
    prior = _arg(args, kwargs, 0, "prior")
    if prior.kind == "discrete":
        tr.discrete_params.add((prior.a, prior.b))


def _probe_claims(n_samples_index: int):
    def probe(tr, args, kwargs):
        prior = _arg(args, kwargs, 0, "prior")
        n = int(_arg(args, kwargs, n_samples_index, "n_samples"))
        seed = int(_arg(args, kwargs, n_samples_index + 1, "seed"))
        tr.keys["claims.sample_requests"].add((tr.job, _prior_key(prior), seed, n))
    return probe


def _probe_moment(tr, args, kwargs):
    dist = _arg(args, kwargs, 0, "dist")
    t = float(_arg(args, kwargs, 1, "t"))
    tr.keys["moments.moment_mt"].add((tr.job, id(dist), t))


def _probe_sha(tr, args, kwargs):
    tr.counters["manifest.sha256_file.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_PROBES = {
    "cli": _probe_cli,
    "model.log_pattern_prob_arrays": _probe_elems("model.log_pattern_prob_arrays.elems", 0, "te"),
    "model.zeta_inv": _probe_elems("model.zeta_inv.elems", 0, "v"),
    "posterior.kernel_log_values": _probe_elems("posterior.kernel_log_values.elems", 1, "lp0"),
    "posterior.paradox_scan": _probe_sampling_prior,
    "posterior.tree_posterior": _probe_sampling_prior,
    "claims.in_band_advantage": _probe_claims(5),
    "claims.conditional_ratio_scan": _probe_claims(6),
    "moments.moment_mt": _probe_moment,
    "moments.tail": _probe_elems("moments.tail.elems", 1, "v"),
    "priors.g": _probe_g,
    "priors.h_sat": _probe_h_sat,
    "manifest.sha256_file": _probe_sha,
}

# ratio metric -> (numerator, span names whose calls are the denominator); the
# numerator is a counter, or the number of distinct keys a probe recorded
_RATIOS = {
    "model.zeta_inv.elems_per_call": ("model.zeta_inv.elems", ("model.zeta_inv",)),
    "priors.h_sat.unique_ratio": ("priors.h_sat", ("priors.h_sat",)),
    "moments.moment_mt.unique_ratio": ("moments.moment_mt", ("moments.moment_mt",)),
    "claims.draw_reuse_ratio": (
        "claims.sample_requests",
        ("claims.in_band_advantage", "claims.conditional_ratio_scan"),
    ),
}


def per_layer_metrics(tracer: Tracer, names, traced_walls: list[float], untraced_wall: float,
                      discrete_r) -> dict[str, float]:
    """Per-pass values of the named per-layer metrics from the traced passes.

    ``<span>.calls`` and ``<span>.self_s`` come from the spans, with
    ``<layer>.self_s`` summed over the layer's spans; ``elems``, ``draws``,
    ``g_calls`` and ``bytes`` are counters; ratios are over the whole run.
    ``traced_walls`` holds the time of each traced pass and ``untraced_wall``
    the time of one pass without tracing; ``discrete_r(a, b)`` returns the
    discrete prior's series normalizer r, so that r/3 is the sampler's
    acceptance rate.  An unknown name raises KeyError.
    """
    passes = len(traced_walls)
    own = tracer.self_times()
    calls = tracer.calls()
    layer_self = defaultdict(float)
    for span, value in own.items():
        layer_self[span.partition(".")[0]] += value
    traced_wall = float(np.median(traced_walls))
    rates = [discrete_r(a, b) / 3.0 for a, b in sorted(tracer.discrete_params)]
    special = {
        "priors.discrete.accept_ratio": float(np.mean(rates)) if rates else 0.0,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.remainder_s": (sum(traced_walls) - sum(own.values())) / passes,
        "trace.spans": len(tracer.start) / passes,
    }
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in _RATIOS:
            num, dens = _RATIOS[name]
            den = sum(calls.get(d, 0) for d in dens)
            value = tracer.counters[num] if num.endswith(".elems") else len(tracer.keys[num])
            out[name] = value / den if den else 0.0
        elif field == "calls":
            out[name] = calls.get(base, 0) / passes
        elif field == "self_s":
            out[name] = (layer_self[base] if base in LAYERS else own.get(base, 0.0)) / passes
        elif field in ("elems", "draws", "g_calls", "bytes"):
            out[name] = tracer.counters[name] / passes
        else:
            raise KeyError(f"unknown per-layer metric {name!r}")
    return out
