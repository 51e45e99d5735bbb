"""Per-layer tracing of spnum from the benchmark's side of the call.

``Tracer`` wraps every public module-level function of the seven layer
modules and rebinds the wrapper in every ``spnum`` module namespace that
holds the function, so calls between modules go through it too.  Nothing
under ``src/`` changes.  Private helpers (``_prime_pi_many``, ``_rho_split``)
stay unwrapped: their time is the self time of their public caller.

A span is the tuple ``(name, parent, rid, start, end, busy, nested, note)``:

- ``parent`` is the index of the enclosing span (-1 at the top), ``rid``
  the request id.
- ``busy`` is the time spent inside the call.  It equals end - start for a
  plain call; for a generator it is the sum of the time spent inside each
  resumption, so the consumer's own work between items is not counted.
- ``nested`` marks a call made while the same function was already active
  (recursion), so a function's inclusive time counts only outermost calls.
- ``note`` is a small per-call record for the counters below, or None.

``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from math import isqrt
from time import perf_counter

import oracle

LAYERS = ("cli", "census", "arith", "classify", "analytic", "pell", "construct")
FIELDS = ("name", "parent", "rid", "start", "end", "busy", "nested", "note")

# name -> (unit, better); every traced run reports all of them.
PER_LAYER = {
    **{f"{layer}.{kind}": spec for layer in LAYERS
       for kind, spec in (("self_s", ("s", "lower")), ("calls", ("count", "lower")))},
    "census.kp_count.s": ("s", "lower"),
    "census.psp_count.s": ("s", "lower"),
    "census.sieved_n": ("count", "lower"),
    "census.pi_queries": ("count", "lower"),
    "census.digit_census.s": ("s", "lower"),
    "census.kp_enumerate.s": ("s", "lower"),
    "census.sieve_primes.s": ("s", "lower"),
    "arith.is_prime.calls": ("count", "lower"),
    "arith.is_prime.s": ("s", "lower"),
    "arith.is_prime.above_det_bound": ("count", "lower"),
    "arith.factorize.calls": ("count", "lower"),
    "arith.factorize.s": ("s", "lower"),
    "classify.kp_decompose.s": ("s", "lower"),
    "classify.member_ratio": ("ratio", "higher"),
    "pell.fundamental_solution.s": ("s", "lower"),
    "pell.cf_fundamental.s": ("s", "lower"),
    "pell.solution_bits": ("bits", "lower"),
    "construct.gap_witness.s": ("s", "lower"),
    "construct.x2p1_scan.s": ("s", "lower"),
    "construct.x3p1_scan.s": ("s", "lower"),
    "construct.x2p1_scan.hit_ratio": ("ratio", "higher"),
    "construct.x3p1_scan.hit_ratio": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}
_INCLUSIVE = [name[:-2] for name in PER_LAYER if name.endswith(".s")]


def _notes() -> dict:
    """Per-function note makers: (args, kwargs, result) -> note."""
    def arg(args, kwargs, i, key, default=None):
        return args[i] if len(args) > i else kwargs.get(key, default)

    return {
        # is_prime turns to random-base Miller-Rabin at this published bound
        "arith.is_prime": lambda a, kw, r: arg(a, kw, 0, "n") >= oracle.MR_EXACT_BOUND,
        "classify.kp_decompose": lambda a, kw, r: r is not None,
        "census.kp_count": lambda a, kw, r: [arg(a, kw, 0, "n"), arg(a, kw, 1, "k", 2)],
        "census.psp_count": lambda a, kw, r: arg(a, kw, 0, "n"),
        "construct.x2p1_scan": lambda a, kw, r: [arg(a, kw, 0, "bound"), len(r)],
        "construct.x3p1_scan": lambda a, kw, r: len(r),
        "pell.fundamental_solution": lambda a, kw, r: r.x.bit_length(),
        "pell.cf_fundamental": lambda a, kw, r: r.x.bit_length(),
    }


class Tracer:
    """Context manager: while entered, spnum's public functions record spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.rid = -1
        self._stack: list[int] = []
        self._notes = _notes()
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        pkg = "spnum"
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _note(self, name, args, kwargs, result):
        make = self._notes.get(name)
        if make is None:
            return None
        try:
            return make(args, kwargs, result)
        except (IndexError, KeyError, AttributeError, TypeError):
            return None  # signature changed: the counter reads 0, timing still works

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack = self.spans, self._stack
        active = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal active
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active -= 1
                stack.pop()
                spans[sid] = (name, parent, self.rid, start, end, end - start, active > 0, None)
            note = self._note(name, args, kwargs, result)
            if note is not None:
                spans[sid] = spans[sid][:-1] + (note,)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            rid, start = self.rid, perf_counter()
            spans.append((name, parent, rid, start, start, 0.0, False, None))

            def resume():
                busy = 0.0
                try:
                    while True:
                        stack.append(sid)
                        t = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            busy += perf_counter() - t
                            stack.pop()
                        yield item
                finally:
                    gen.close()
                    spans[sid] = (name, parent, rid, start, perf_counter(), busy, False, None)

            return resume()

        return traced


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's busy time minus the busy time of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            covered[s[1]] += s[5]
    return [s[5] - c for s, c in zip(spans, covered)]


def _pi_queries_and_top(name: str, note) -> tuple[int, int]:
    """(pi(x) queries, largest x queried) for one kp_count / psp_count call,
    computed from its arguments the way the seed code forms its quotients."""
    if name == "census.kp_count":
        n, k = note
        a_max = oracle.iroot(n // 2, k) if n >= 2 else 0
        return (a_max - 1, n // 2**k) if a_max >= 2 else (0, 0)
    n = note
    if n < 8:
        return 0, 0
    return len(oracle.primes_upto(isqrt(n // 2))), n // 4


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics (all of PER_LAYER except trace.overhead_frac)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    notes: dict[str, list] = defaultdict(list)
    for s, own in zip(spans, self_times(spans)):
        name = s[0]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        calls[name] += 1
        if not s[6]:
            inclusive[name] += s[5]
        if s[7] is not None:
            notes[name].append(s[7])
    for name in _INCLUSIVE:
        out[f"{name}.s"] = inclusive[name]
    sieved = queries = 0
    for name in ("census.kp_count", "census.psp_count"):
        for note in notes[name]:
            q, top = _pi_queries_and_top(name, note)
            queries += q
            sieved += top
    out["census.sieved_n"] = sieved
    out["census.pi_queries"] = queries
    out["arith.is_prime.calls"] = calls["arith.is_prime"]
    out["arith.is_prime.above_det_bound"] = sum(notes["arith.is_prime"])
    out["arith.factorize.calls"] = calls["arith.factorize"]
    members = notes["classify.kp_decompose"]
    out["classify.member_ratio"] = sum(members) / len(members) if members else 0.0
    out["pell.solution_bits"] = sum(notes["pell.fundamental_solution"]) + sum(notes["pell.cf_fundamental"])
    scanned = sum(isqrt(b - 1) for b, _ in notes["construct.x2p1_scan"] if b >= 2)
    found = sum(w for _, w in notes["construct.x2p1_scan"])
    out["construct.x2p1_scan.hit_ratio"] = found / scanned if scanned else 0.0
    tested = sum(1 for s in spans
                 if s[0] == "arith.is_prime" and s[1] >= 0 and spans[s[1]][0] == "construct.x3p1_scan")
    found = sum(notes["construct.x3p1_scan"])
    out["construct.x3p1_scan.hit_ratio"] = found / tested if tested else 0.0
    return out


def write_spans(path, spans: list[tuple], pass_index: int) -> None:
    """Append one pass's spans to a gzip'd JSON-lines file."""
    with gzip.open(path, "at", compresslevel=3) as fh:
        fh.write(json.dumps({"pass": pass_index, "fields": FIELDS}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
