"""Spans around the fockhaus layer entry points, installed from outside.

The tracer rebinds module attributes and class methods to thin wrappers.
A function imported by name elsewhere (``harness._log_circle_means``,
``classify.support_report``, the package re-exports, ...) is found by
identity in every fockhaus module and rebound there too; otherwise calls
through that name would be missed.  ``uninstall`` puts every original back.

Each span records (id, parent id, name, start, end).  Self time is the
span's duration minus the durations of its direct children, minus the
tracer's own cost: a span costs its parent some bookkeeping outside the
child's clock readings (``cost_out``) and itself some inside them
(``cost_in``).  Both are measured when the tracer is made, by tracing a
no-op, and taken out of every self time; total times lose the cost of
every descendant span.

Two entry points are called millions of times on cached or closed-form
values (``HausdorffOperator.eigenvalue``, ``weighted_mass``), where a span
would cost more than the call.  Installed with ``hot=True``, their
wrappers count every call and time it with two clock readings, per
caller, less what they record for a no-op (``hot_bias``); ``finish``
adds these to the self times and keeps them per caller in ``hot_split``.
Installed with ``hot=False`` they are left alone.

Aggregates are kept for every span; the span list itself is capped so a
long run cannot exhaust memory, and the number dropped is reported.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("entire", "focknorm", "measure", "hausdorff", "classify", "harness", "cli")

SPAN_CAP = 200_000
CALIBRATION_SPANS = 20_000
CALIBRATION_REPEATS = 7


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.hot_self: defaultdict = defaultdict(float)  # (caller, hot entry point) -> s
        self.hot_split: dict[str, dict] = {}  # see finish
        self._hot: list[str] = []
        self._hot_stack: list[list] = []
        self._depth: dict[str, list] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.cost_in = self.cost_out = self.hot_bias = self.hot_cost = 0.0
        self.cost_in, self.cost_out = self._calibrate()
        self.hot_bias, self.hot_cost = self._calibrate_hot()

    @property
    def span_cost_s(self) -> float:
        """Tracer time per span that no self time contains."""
        return self.cost_in + self.cost_out

    def span_count(self) -> int:
        return self._next_id

    def cost_s(self) -> float:
        """Calibrated tracer time of the spans and hot calls so far."""
        hot = sum(self.calls[name] for name in self._hot)
        return self.span_count() * self.span_cost_s + hot * self.hot_cost

    def _reset(self) -> None:
        for agg in (self.calls, self.self_s, self.total_s, self.counts, self.hot_self):
            agg.clear()
        self.spans.clear()
        self.dropped = 0
        self._next_id = 0

    def _calibrate(self) -> tuple[float, float]:
        """Median per-span tracer cost over a few loops of traced no-ops.

        cost_out: the parent's self time per traced child, less the same loop
        calling the bare no-op.  cost_in: the no-op span's own duration, less
        one bare call.
        """
        def noop():
            return None

        def bare():
            for _ in range(CALIBRATION_SPANS):
                noop()

        inner = self._wrapper(noop, "trace.calibrate.inner")

        def loop():
            for _ in range(CALIBRATION_SPANS):
                inner()

        outer = self._wrapper(loop, "trace.calibrate.outer")
        clock = time.perf_counter
        c_in, c_out = [], []
        for _ in range(CALIBRATION_REPEATS):
            t0 = clock()
            bare()
            bare_s = (clock() - t0) / CALIBRATION_SPANS
            self.self_s.clear()
            outer()
            c_out.append(self.self_s["trace.calibrate.outer"] / CALIBRATION_SPANS - bare_s)
            c_in.append(self.self_s["trace.calibrate.inner"] / CALIBRATION_SPANS - bare_s)
        self._reset()
        return max(0.0, statistics.median(c_in)), max(0.0, statistics.median(c_out))

    # -- wrapping ---------------------------------------------------------------

    def _wrapper(self, fn, name, name_of=None, on_exit=None):
        """A full span around every call."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name if name_of is None else name_of(args, kwargs)
            self._next_id += 1
            parent = stack[-1] if stack else None
            # id, name, start, children's time, children's tracer cost,
            # descendants' tracer cost
            frame = [self._next_id, span_name, clock(), 0.0, 0.0, 0.0]
            stack.append(frame)
            out, raised = None, True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                    parent[4] += self.cost_out
                    parent[5] += frame[5] + self.cost_in + self.cost_out
                self.calls[span_name] += 1
                self.self_s[span_name] += dur - frame[3] - frame[4] - self.cost_in
                self.total_s[span_name] += dur - frame[5] - self.cost_in
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (frame[0], parent[0] if parent else 0, span_name, frame[2], end)
                    )
                else:
                    self.dropped += 1
                if on_exit is not None:
                    on_exit(self.counts, args, kwargs, out, raised,
                            parent[1] if parent else None)

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, fn, name, tally=None):
        """Every call counted and timed with two clock readings, no span.

        A call made inside a call of the same entry point (a factor of a
        convolution or a scaling) is part of the outer call: neither
        counted nor timed on its own.  The time of a hot call made inside
        another hot call is taken out of the outer one.  ``tally(counts,
        out)`` sees every counted call's result.
        """
        stack, hot_stack, counts, calls = self._stack, self._hot_stack, self.counts, self.calls
        hot_self = self.hot_self
        depth = self._depth.setdefault(name, [0])
        clock = time.perf_counter

        def hot(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            frame = [name, 0.0]
            hot_stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                hot_stack.pop()
                depth[0] = 0
                if hot_stack:
                    outer = hot_stack[-1]
                    outer[1] += dur + self.hot_cost
                    parent = outer[0]
                else:
                    parent = stack[-1][1] if stack else None
                calls[name] += 1
                hot_self[(parent, name)] += dur - frame[1] - self.hot_bias
            if tally is not None:
                tally(counts, out)
            return out

        hot.__wrapped__ = fn
        return hot

    def _calibrate_hot(self) -> tuple[float, float]:
        """What the hot wrapper records for a no-op call, and what it costs its caller."""
        name = "trace.calibrate.hot"

        def noop():
            return None

        hot = self._hot_wrapper(noop, name)

        def loop(fn):
            for _ in range(CALIBRATION_SPANS):
                fn()

        clock = time.perf_counter
        bias, cost = [], []
        for _ in range(CALIBRATION_REPEATS):
            self.hot_self.clear()
            t0 = clock()
            loop(noop)
            t1 = clock()
            loop(hot)
            t2 = clock()
            bias.append(self.hot_self[(None, name)] / CALIBRATION_SPANS)
            cost.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_SPANS)
        self._reset()
        return max(0.0, statistics.median(bias)), max(0.0, statistics.median(cost))

    def finish(self) -> None:
        """Self times of the hot entry points, and how much of each caller they were."""
        self.hot_split = {name: {} for name in self._hot}
        for (parent, name), seconds in self.hot_self.items():
            self.self_s[name] += seconds
            split = self.hot_split[name]
            split[parent] = split.get(parent, 0.0) + seconds

    def wrap_function(self, modules, owner, attr, name, **hooks):
        """Rebind owner.attr and every other module attribute bound to it."""
        original = getattr(owner, attr)
        wrapped = self._wrapper(original, name, **hooks)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def wrap_method(self, cls, attr, name, hot=False, **hooks):
        """Rebind cls.attr; a hot entry point gets the lighter wrapper."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if hot:
            wrapped = self._hot_wrapper(original, name, **hooks)
            if name not in self._hot:
                self._hot.append(name)
        else:
            wrapped = self._wrapper(original, name, **hooks)
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")


# -- the fockhaus entry points ------------------------------------------------------


def _count_radii(counts, args, kwargs, out, raised, parent):
    radii = args[2] if len(args) > 2 else kwargs["radii"]
    counts["focknorm.circle_means.radii"] += len(radii)
    if parent == "focknorm.radial_sup":
        counts["focknorm.radial_sup.means"] += 1


def _count_quadrature(counts, out):
    if not out[1].startswith("closed"):
        counts["measure.weighted_mass.quad_calls"] += 1


def _count_series(counts, args, kwargs, out, raised, parent):
    if raised:
        return
    counts["classify.series_verdict.terms"] += out.n_terms
    if out.outcome != "unknown":
        counts["classify.series_verdict.certified"] += 1


def _count_sup(counts, args, kwargs, out, raised, parent):
    if not raised:
        counts["classify.sup_verdict.terms"] += out.n_terms


def _count_failures(counts, args, kwargs, out, raised, parent):
    if raised:
        counts["hausdorff.apply_quadrature.failed"] += 1


def _suite_name(args, kwargs):
    suite = args[0] if args else kwargs["suite"]
    return f"harness.{suite}"


def layer_self_s(self_s: dict, layer: str) -> float:
    prefix = layer + "."
    return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)


def install(tracer: Tracer, fockhaus, hot: bool = True) -> None:
    """Wrap the layer entry points of an imported fockhaus package.

    With hot=False the two hot entry points are left alone: their time
    stays in their callers' self times, undisturbed by any wrapper.
    """
    from fockhaus import classify, cli, entire, focknorm, harness, hausdorff, measure

    modules = (fockhaus, entire, focknorm, measure, hausdorff, classify, harness, cli)

    def fn(owner, attr, name, **hooks):
        tracer.wrap_function(modules, owner, attr, name, **hooks)

    fn(entire, "kernel", "entire.kernel")

    fn(focknorm, "fock_norm", "focknorm.fock_norm")
    fn(focknorm, "mixed_norm", "focknorm.mixed_norm")
    fn(focknorm, "_log_radial_sup", "focknorm.radial_sup")
    fn(focknorm, "_log_radial_integral", "focknorm.radial_integral")
    fn(focknorm, "_log_circle_means", "focknorm.circle_means", on_exit=_count_radii)
    fn(focknorm, "_log_mean_2", "focknorm.mean2")
    fn(focknorm, "_log_mean_p", "focknorm.meanp")
    fn(focknorm, "_log_mean_inf", "focknorm.meaninf")

    fn(measure, "support_report", "measure.support_report")
    fn(measure, "moments", "measure.moments")
    fn(hausdorff, "apply_spectral", "hausdorff.apply_spectral")
    fn(hausdorff, "apply_quadrature", "hausdorff.apply_quadrature",
       on_exit=_count_failures)
    fn(hausdorff, "dilation_opnorm_estimate", "hausdorff.dilation_opnorm_estimate")

    fn(classify, "series_verdict", "classify.series_verdict", on_exit=_count_series)
    fn(classify, "sup_verdict", "classify.sup_verdict", on_exit=_count_sup)
    for name in ("classify_entire", "classify_bounded", "classify_compact",
                 "classify_weighted", "smoothing_criteria", "summing_criteria"):
        fn(classify, name, f"classify.{name}")

    fn(harness, "run_suite", "harness.run_suite", name_of=_suite_name)
    fn(cli, "main", "cli.main")
    if not hot:
        return

    for cls in vars(measure).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, measure.MeasureSpec)
            and cls is not measure.MeasureSpec
            and "weighted_mass" in cls.__dict__
        ):
            tracer.wrap_method(cls, "weighted_mass", "measure.weighted_mass", hot=True,
                               tally=_count_quadrature)
    tracer.wrap_method(hausdorff.HausdorffOperator, "eigenvalue", "hausdorff.eigenvalue",
                       hot=True)
