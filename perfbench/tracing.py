"""Outside-in span recorder for the antsel package.

The recorder wraps, for the duration of a traced round, every function
that one antsel module looks up in another at call time: names imported
from another module (``antsel.verify.select_qr_greedy``) and the
functions reached through a module alias (``antsel.montecarlo.rx``,
which is swapped for a namespace of wrapped functions).  Calls inside a
module are left alone, so a span marks exactly one crossing of a layer
boundary.  Spans are kept in memory as ``[name, start, end, parent]``
and written out when the benchmark ends.

Layers are the package modules: channel, selection, receivers,
analytic, montecarlo, verify, cli.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import types
from collections import Counter, defaultdict

LAYERS = ("channel", "selection", "receivers", "analytic", "montecarlo", "verify", "cli")

#: Montecarlo entry points the workloads reach; each one's self time is
#: reported on its own.
MONTECARLO_FUNCTIONS = ("estimate_outage", "estimate_ber", "fit_slope")

#: Names the CLI imports from ``antsel.verify`` inside a function body, so
#: they are looked up on the verify module itself at call time.
LAZY_IMPORTS = {"verify": ("run_verification", "analytic_selftest")}

#: Counters that must repeat bit for bit across traced rounds of one seed.
EXACT_COUNTERS = (
    "channel.calls", "channel.values", "channel.redraw_share", "selection.calls", "receivers.calls",
    "analytic.calls", "montecarlo.trials", "cli.bytes_written",
)


class Tracer:
    """Installs the wrappers, records spans and boundary counters, and
    turns one round of spans into per-layer metrics."""

    def __init__(self) -> None:
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counters of the previous round."""
        self.spans: list[list] = []
        self._stack.clear()
        self.values = 0
        self.redrawn = 0
        self.trials = 0
        self._drawn: set = set()
        # id(generator) -> [seed, stream, draws so far, generator]; the
        # generator is held so its id cannot be reused within a round
        self._streams: dict[int, list] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        hook = self._hooks().get(name)
        signature = inspect.signature(fn) if hook is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _hooks(self) -> dict:
        """Boundary counters, keyed by span name; each receives the bound
        arguments and the result, after the span has closed."""
        hooks = {
            "channel.stream_generator": self._on_stream,
            "channel.complex_gaussian": self._on_complex_gaussian,
            "channel.sample_channel": self._on_sample_channel,
        }
        for fn_name in MONTECARLO_FUNCTIONS:
            hooks[f"montecarlo.{fn_name}"] = self._on_montecarlo
        return hooks

    def _on_stream(self, bound, rng) -> None:
        self._streams[id(rng)] = [int(bound["seed"]), int(bound["stream"]), 0, rng]

    def _count_draw(self, key, values: int) -> None:
        """Count ``values`` complex normals; ``key`` names the generator
        position they come from, None when it is not known."""
        self.values += values
        if key is None:
            return
        if key in self._drawn:
            self.redrawn += values
        self._drawn.add(key)

    def _on_complex_gaussian(self, bound, _result) -> None:
        shape = tuple(int(n) for n in bound["shape"])
        entry = self._streams.get(id(bound["rng"]))
        key = None
        if entry is not None:
            key = (entry[0], entry[1], entry[2], shape)
            entry[2] += 1
        self._count_draw(key, math.prod(shape))

    def _on_sample_channel(self, bound, _result) -> None:
        shape = (int(bound["n_r"]), int(bound["n_t"]))
        self._count_draw((int(bound["seed"]), int(bound["draw_index"]), 0, shape), math.prod(shape))

    def _on_montecarlo(self, bound, _result) -> None:
        """Trials (channel draws or frames) asked of a montecarlo entry point."""
        if "config" in bound:
            self.trials += int(bound["config"].trial_count)
        elif "trials" in bound:
            self.trials += int(bound["trials"])

    def install(self) -> None:
        """Swap every cross-module function reference for a traced one."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"antsel.{layer}")
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType):
                    if value.__name__.startswith("antsel.") and value is not module:
                        self._patch(module, attr, self._proxy(value))
                elif _foreign_function(value, module):
                    self._patch(module, attr, self._wrap_foreign(value))
        for layer, names in LAZY_IMPORTS.items():
            module = importlib.import_module(f"antsel.{layer}")
            for attr in names:
                self._patch(module, attr, self.wrap(getattr(module, attr), layer))

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap_foreign(self, fn):
        return self.wrap(fn, fn.__module__.rsplit(".", 1)[-1])

    def _proxy(self, module: types.ModuleType) -> types.SimpleNamespace:
        """Namespace standing in for a module alias: its functions traced,
        everything else passed through."""
        attrs = {}
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__.startswith("antsel."):
                attrs[attr] = self._wrap_foreign(value)
            else:
                attrs[attr] = value
        return types.SimpleNamespace(**attrs)

    # -- metrics ------------------------------------------------------------

    def metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        busy_s sums the spans of a layer that no span of the same layer
        encloses; self_s subtracts from each span the time its child spans
        cover.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        layers = [name.split(".", 1)[0] for name, *_ in spans]
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        fn_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            layer = layers[i]
            own = (end - start) - child[i]
            self_s[layer] += own
            fn_self[name] += own
            p = parent
            while p >= 0 and layers[p] != layer:
                p = spans[p][3]
            if p < 0:
                busy[layer] += end - start
                calls[layer] += 1
        out: dict[str, float] = {}
        for layer in ("channel", "selection", "receivers", "analytic"):
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["channel.values"] = self.values
        out["channel.redraw_share"] = self.redrawn / self.values if self.values else 0.0
        out["receivers.us_per_call"] = 1e6 * busy["receivers"] / calls["receivers"] if calls["receivers"] else 0.0
        out["montecarlo.self_s"] = self_s["montecarlo"]
        for fn_name in MONTECARLO_FUNCTIONS:
            out[f"montecarlo.{fn_name}.self_s"] = fn_self[f"montecarlo.{fn_name}"]
        out["montecarlo.trials"] = self.trials
        out["verify.self_s"] = self_s["verify"]
        out["cli.self_s"] = self_s["cli"]
        out["cli.bytes_written"] = bytes_written
        return out


def _foreign_function(value, module: types.ModuleType) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.startswith("antsel.")
        and value.__module__ != module.__name__
    )

