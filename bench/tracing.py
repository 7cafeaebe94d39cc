"""Spans and counters around the public functions of each ratlanczos layer.

The tracer replaces the module and class attributes that the pipelines
look up at call time with timing wrappers, and puts the originals back
when it is done, so no library file changes.  A span records its name,
start, end, the span that caused it and the pipeline call it belongs
to; spans stay in memory and are reduced to per-name counts and self
times (a span's time minus the time of its child spans) at the end.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, class or None, attribute, span name) for every binding site
#: the pipelines reach.  Names imported with ``from .dense import ...``
#: are patched in the importing module, where the caller looks them up.
SITES = (
    ("shifts", None, "shifted_factorize", "shifts.factorize"),
    ("shifts", "FactorizationCache", "get", "shifts.cache.get"),
    ("shifts", "ShiftedFactorization", "solve", "shifts.solve"),
    ("sparse", "SparseSym", "matvec", "sparse.matvec"),
    ("sparse", "SparseSym", "matmat", "sparse.matmat"),
    ("lanczos", None, "lanczos_step", "lanczos.step"),
    ("block", None, "block_lanczos_step", "block.step"),
    ("arnoldi", "ArnoldiProcess", "step", "arnoldi.step"),
    ("forms", None, "matfun_action_e1", "dense.matfun"),
    ("forms", None, "matfun_first_cols", "dense.matfun"),
    ("block", None, "qr_thin", "dense.qr_thin"),
    ("arnoldi", None, "qr_thin", "dense.qr_thin"),
    ("control", None, "care_newton", "dense.care_newton"),
    ("control", None, "l2_stop_metric", "control.l2_stop_metric"),
)


def _cols(X):
    return 1 if X.ndim == 1 else X.shape[1]


#: counters taken from a wrapped call's arguments and result
COUNTERS = {
    "shifts.factorize": lambda args, out: {f"shifts.factorize.{out.method}": 1},
    "shifts.solve": lambda args, out: {"shifts.solve.rhs_cols": _cols(args[1])},
    "sparse.matmat": lambda args, out: {"sparse.matmat.cols": _cols(args[1])},
}


def _sites():
    for module, cls, attr, name in SITES:
        owner = importlib.import_module(f"ratlanczos.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        yield owner, attr, name


def bindings():
    """The objects currently bound at every site, in ``SITES`` order."""
    return [vars(owner)[attr] for owner, attr, _ in _sites()]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        # span id -> (name, start, end, parent id, call id); ids are
        # taken at entry so a parent's id is known to its children
        self.spans = []
        self.counts = defaultdict(int)
        self.calls = 0
        self._stack = []

    def _enter(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _exit(self, sid, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.calls)

    @contextmanager
    def call(self, name):
        """Top-level span around one pipeline call."""
        self.calls += 1
        sid = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, name, start)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._enter()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(sid, name, start)
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[key] += value
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding site; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in _sites():
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def totals(self):
        """Per span name: (number of spans, summed self time in seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        count = defaultdict(int)
        self_s = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            count[name] += 1
            self_s[name] += end - start - child[sid]
        return count, self_s
