"""Span tracer for the benchmark's traced run.

The tracer records spans only from the benchmark's own code: it replaces, for
the duration of a traced run, the names the ``hexnet`` package binds at its
layer boundaries (``hexnet.analytic.integrate``, ``affine_power``,
``Jet.__pow__``, ``hexnet.montecarlo.sample_fading`` ...) with thin wrappers
that time the call and count its work, and puts every original back
afterwards.  The wrappers pass arguments and results through untouched, so a
traced run computes bit-identical outputs.

Spans are kept in memory as columns and written out when the run ends.  A
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

import hexnet.analytic as analytic
import hexnet.montecarlo as montecarlo
from hexnet.exclusion import ExclusionRegions
from hexnet.numerics.jets import Jet

QUAD = "numerics.quadrature"
QUAD_LEVELS = ("outer", "inner", "rate_t")
TAIL = QUAD + ".tail"
AFFINE_POWER = "numerics.jets.affine_power"
JET_POW = "numerics.jets.pow"
EXCLUSION = "exclusion"
KAPPA = "propagation.kappa"
DISTANCE_PDF = "geometry.distance_pdf"
SAMPLE = "geometry.sample"
FADING = "propagation.fading"
MC_ESTIMATE = "montecarlo.estimate"
MC_BYTES = "montecarlo.bytes_computed"

#: the public piecewise boundaries of ExclusionRegions
EXCLUSION_METHODS = ("e_lr", "e_ln", "e_nr", "e_nl", "e_rl", "e_rn")


def kept_nodes(sizes) -> float:
    """Nodes left on final panels, from the node count of each sweep.

    The first integrand call evaluates the initial panels; every later call
    evaluates the two halves of each panel it splits, so half of its nodes
    replace nodes that are discarded.  Only valid for ``integrate``'s
    split-in-two refinement, which is what the wrapped names use.
    """
    if not sizes:
        return 0.0
    return sizes[0] + 0.5 * sum(sizes[1:])


class NullTracer:
    """Stand-in for untraced runs: every hook is a no-op."""

    point = -1

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def bind_engine(self, engine) -> None:
        pass


class Tracer:
    """Columnar span store plus per-layer counters."""

    def __init__(self):
        self.point = -1             # identifier shared by one evaluation's spans
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.span_point = array("q")
        self.name_code = array("q")
        self.start = array("d")
        self.stop = array("d")
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.q_inner = None
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        stop = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = stop - start
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            pid = parent[0]
        else:
            pid = -1
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.parent.append(pid)
        self.span_point.append(self.point)
        self.name_code.append(code)
        self.start.append(start)
        self.stop.append(stop)

    def bind_engine(self, engine) -> None:
        """Quadrature levels are told apart by the Quadrature object passed."""
        self.q_inner = engine.q_inner

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), span_id=np.asarray(self.span_id),
            parent=np.asarray(self.parent), point=np.asarray(self.span_point),
            name_code=np.asarray(self.name_code), start=np.asarray(self.start),
            stop=np.asarray(self.stop))

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, tally=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if tally is not None:
                tally(tracer.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _quadrature(self, fn, level_of):
        tracer = self

        def wrapper(f, *args, **kwargs):
            name = f"{QUAD}.{level_of(args, kwargs)}"
            sizes = []

            def counted(x):
                sizes.append(np.size(x))
                return f(x)

            tracer.begin(name)
            try:
                out = fn(counted, *args, **kwargs)
            finally:
                tracer.end()
            c = tracer.counts
            c[name + ".calls"] += 1
            c[name + ".nodes"] += sum(sizes)
            c[name + ".sweeps"] += len(sizes)
            c[name + ".kept_nodes"] += kept_nodes(sizes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _integrate_level(self, args, kwargs) -> str:
        q = args[2] if len(args) > 2 else kwargs.get("q")
        return "inner" if q is not None and q is self.q_inner else "outer"

    def _tail_factory(self, cls):
        tracer = self

        def make(f, a, b, q=None):
            building = [True]

            def counted(x):
                if building[0]:
                    tracer.counts[TAIL + ".build_nodes"] += np.size(x)
                return f(x)

            tracer.begin(TAIL)
            try:
                tail = cls(counted, a, b, q)
            finally:
                tracer.end()
            building[0] = False
            return _TracedTail(tail, tracer)

        make.__wrapped__ = cls
        return make

    def _patches(self):
        def calls_points(prefix, arg):
            def tally(c, args, out):
                c[prefix + ".calls"] += 1
                c[prefix + ".points"] += np.size(args[arg])
            return tally

        def jet_tally(prefix, with_bytes):
            def tally(c, args, out):
                c[prefix + ".calls"] += 1
                c[prefix + ".elements"] += out.coeffs.size
                if with_bytes:
                    c[prefix + ".bytes_computed"] += out.coeffs.nbytes
            return tally

        def sample_tally(c, args, out):
            c[SAMPLE + ".trials"] += args[2]
            c[MC_BYTES] += sum(a.nbytes for a in out)

        def fading_tally(c, args, out):
            c[FADING + ".draws"] += np.size(out)
            c[MC_BYTES] += np.asarray(out).nbytes

        kappa = calls_points(KAPPA, 0)
        excl = calls_points(EXCLUSION, 1)     # args[0] is the instance
        engine = analytic.AnalyticEngine
        return [
            (analytic, "integrate",
             self._quadrature(analytic.integrate, self._integrate_level)),
            (analytic, "integrate_semiinfinite",
             self._quadrature(analytic.integrate_semiinfinite,
                              lambda args, kwargs: "rate_t")),
            (analytic, "TailIntegral", self._tail_factory(analytic.TailIntegral)),
            (analytic, "affine_power",
             self._timed(AFFINE_POWER, analytic.affine_power,
                         jet_tally(AFFINE_POWER, True))),
            (analytic, "distance_pdf",
             self._timed(DISTANCE_PDF, analytic.distance_pdf,
                         calls_points(DISTANCE_PDF, 0))),
            (analytic, "kappa_los", self._timed(KAPPA, analytic.kappa_los, kappa)),
            (analytic, "kappa_nlos", self._timed(KAPPA, analytic.kappa_nlos, kappa)),
            (Jet, "__pow__",
             self._timed(JET_POW, Jet.__pow__, jet_tally(JET_POW, False))),
            *[(ExclusionRegions, m,
               self._timed(EXCLUSION, getattr(ExclusionRegions, m), excl))
              for m in EXCLUSION_METHODS],
            (engine, "conditional_coverage",
             self._timed("analytic.coverage", engine.conditional_coverage)),
            (engine, "conditional_rate",
             self._timed("analytic.rate", engine.conditional_rate)),
            (montecarlo, "sample_deployment_arrays",
             self._timed(SAMPLE, montecarlo.sample_deployment_arrays, sample_tally)),
            (montecarlo, "sample_fading",
             self._timed(FADING, montecarlo.sample_fading, fading_tally)),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._patches():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _TracedTail:
    """A built TailIntegral whose lookups are spans."""

    __slots__ = ("_tail", "_tracer")

    def __init__(self, tail, tracer: Tracer):
        self._tail = tail
        self._tracer = tracer

    def __call__(self, x):
        t = self._tracer
        t.begin(TAIL)
        try:
            out = self._tail(x)
        finally:
            t.end()
        t.counts[TAIL + ".lookups"] += 1
        t.counts[TAIL + ".lookup_points"] += np.size(x)
        return out

    def __getattr__(self, name):
        return getattr(self._tail, name)


def patched_names():
    """(owner, attribute) of every name a Tracer replaces."""
    return [(owner, attr) for owner, attr, _ in Tracer()._patches()]
