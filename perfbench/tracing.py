"""Span tracing for the benchmark, installed on etaq from outside.

A `Tracer` replaces selected etaq functions and `QSeries` methods with
wrappers that record one span per call: name, start, end, parent span,
thread, the claim or scan item being worked on, and a few counts read from
the arguments and the result.  Each wrapper is installed on every name that
is bound to the wrapped function, because modules such as `congruence` bind
`theta`, `reduce_mod` or `primes_up_to` at import and look them up there.
Spans are kept in memory and written out as JSON lines at the end.

`layer_metrics` turns a list of spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

VERIFY_KINDS = (
    "two-exponent",
    "square-class",
    "prime-power",
    "unit-factor",
    "twist-power",
    "raw-identity",
)

_INT64_LIMIT = 2**63 - 1


# -- what is wrapped, and what each span records ------------------------------


def _expand_attrs(args, kwargs, result) -> Dict:
    return {"terms": result.precision + 1, "ring": result.ring.describe(), "form": str(args[0])}


def _init_attrs(args, kwargs, result) -> Dict:
    return {"coeffs": args[0].precision + 1}


def _mul_attrs(args, kwargs, result) -> Dict:
    a, b = args[0], args[1]
    p = min(a.precision, b.precision)
    ring = a.ring
    # Products over ZZ/QQ, or modulo a modulus whose products overflow int64,
    # are the exact (big-integer) multiplies.
    exact = ring.kind != "mod" or (ring.modulus - 1) ** 2 * (p + 1) >= _INT64_LIMIT
    return {"products": (p + 1) * (p + 2) // 2, "exact": exact}


def _mismatch_attrs(args, kwargs, result) -> Dict:
    if result is not None:
        return {"coeffs": result + 1}
    return {"coeffs": min(args[0].precision, args[1].precision) + 1}


def _operator_attrs(args, kwargs, result) -> Dict:
    return {"coeffs": result.precision + 1}


def _eisenstein_attrs(args, kwargs, result) -> Dict:
    return {"terms": result.precision + 1}


def _cache_attrs(args, kwargs, result) -> Dict:
    return {"ring": result.ring.describe()}


def _bound_attrs(args, kwargs, result) -> Dict:
    return {"value": result}


def _report_attrs(args, kwargs, result) -> Dict:
    return {"primes_checked": result.primes_checked or 0}


def _verify_claims_attrs(args, kwargs, result) -> Dict:
    return {"jobs": kwargs.get("jobs", args[3] if len(args) > 3 else 1)}


def _scan_attrs(args, kwargs, result) -> Dict:
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    ell_max = args[2] if len(args) > 2 else kwargs.get("ell_max", 100)
    ells = [p for p in range(2, ell_max + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    skipped = 1 if kind == "square-class" and ells else 0
    return {"candidates": len(ells) - skipped}


def _claim_item(args, kwargs) -> str:
    return args[0].claim_id


def _scan_item(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return f"scan:{args[0]}:{kind}"


# (module, attribute, span name, attrs(args, kwargs, result), item(args, kwargs))
# An attribute "Class.method" wraps a method on the class.  Targets missing
# from the traced version of etaq are skipped.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("etaq.cli", "main", "cli.main", None, None),
    ("etaq.cli", "format_polynomial", "cli.format_polynomial", None, None),
    ("etaq.claims", "builtin_claims", "claims.builtin_claims", None, None),
    ("etaq.etaquot", "expand", "etaquot.expand", _expand_attrs, None),
    ("etaq.etaquot", "euler_factor", "etaquot.euler_factor", None, None),
    ("etaq.qseries", "QSeries.__init__", "qseries.init", _init_attrs, None),
    ("etaq.qseries", "QSeries.__mul__", "qseries.mul", _mul_attrs, None),
    ("etaq.qseries", "QSeries.inverse", "qseries.inverse", None, None),
    ("etaq.qseries", "reduce_mod", "qseries.reduce_mod", None, None),
    ("etaq.qseries", "first_mismatch", "qseries.first_mismatch", _mismatch_attrs, None),
    ("etaq.operators", "theta", "operators.theta", _operator_attrs, None),
    ("etaq.operators", "twist", "operators.twist", _operator_attrs, None),
    ("etaq.operators", "u_operator", "operators.u_operator", _operator_attrs, None),
    ("etaq.eisenstein", "eisenstein_G", "eisenstein.build", _eisenstein_attrs, None),
    ("etaq.eisenstein", "eisenstein_E", "eisenstein.build", _eisenstein_attrs, None),
    ("etaq.eisenstein", "eisenstein_E2", "eisenstein.build", _eisenstein_attrs, None),
    ("etaq.eisenstein", "eisenstein_E2_level", "eisenstein.build", _eisenstein_attrs, None),
    ("etaq.eisenstein", "eisenstein_G_twisted", "eisenstein.build", _eisenstein_attrs, None),
    ("etaq.eisenstein", "eisenstein_E_twisted", "eisenstein.build", _eisenstein_attrs, None),
    ("etaq.sturm", "agreement_bound", "sturm.bound", _bound_attrs, None),
    ("etaq.oracles", "primes_up_to", "oracles.primes_up_to", None, None),
    ("etaq.congruence", "cached_expansion", "congruence.cache", _cache_attrs, None),
    ("etaq.congruence", "verify_claims", "congruence.verify_claims", _verify_claims_attrs, None),
    ("etaq.congruence", "verify_claim", "congruence.verify_claim", None, _claim_item),
    ("etaq.congruence", "scan_exceptional", "congruence.scan", _scan_attrs, _scan_item),
) + tuple(
    (
        "etaq.congruence",
        "verify_" + kind.replace("-", "_"),
        "congruence.verify." + kind,
        _report_attrs if kind in ("prime-power", "unit-factor") else None,
        _claim_item,
    )
    for kind in VERIFY_KINDS
)


# -- recording ----------------------------------------------------------------

# A span is a tuple: (id, parent, name, start, end, thread, item, attrs).
Span = Tuple[int, Optional[int], str, float, float, int, Optional[str], Optional[Dict]]


class Tracer:
    """Records spans around etaq calls while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._main = threading.get_ident()
        self._pool_span: Optional[int] = None

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.item = None
        return st

    @contextlib.contextmanager
    def item(self, name: str):
        """Tag the spans this thread records inside the block with `name`."""
        st = self._state()
        saved, st.item = st.item, name
        try:
            yield
        finally:
            st.item = saved

    def _wrap(self, fn, name: str, attrs_fn, item_fn):
        tracer = self
        opens_pool = name == "congruence.verify_claims"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            thread = threading.get_ident()
            if st.stack:
                parent = st.stack[-1]
            elif thread != tracer._main:
                # a root span in a worker thread was caused by the pool
                parent = tracer._pool_span
            else:
                parent = None
            span_id = next(tracer._ids)
            saved_item = st.item
            if item_fn is not None:
                st.item = item_fn(args, kwargs)
            item = st.item
            st.stack.append(span_id)
            if opens_pool and thread == tracer._main:
                tracer._pool_span = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                st.item = saved_item
                if opens_pool and thread == tracer._main:
                    tracer._pool_span = None
            attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
            tracer.spans.append((span_id, parent, name, start, end, thread, item, attrs))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, on every etaq name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "etaq" or n.startswith("etaq.")}
        for mod_name, attr, name, attrs_fn, item_fn in TARGETS:
            module = modules.get(mod_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    continue
                self._patch(cls, meth, fn, self._wrap(fn, name, attrs_fn, item_fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, attrs_fn, item_fn)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._patch(other, key, fn, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines, in order of completion."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, thread, item, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                            "item": item,
                            "attrs": attrs,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def read_spans(path: str) -> List[Span]:
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            spans.append(
                (d["id"], d["parent"], d["name"], d["start"], d["end"], d["thread"], d["item"], d["attrs"])
            )
    return spans


# -- self times and per-layer metrics -----------------------------------------


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _, _, start, end, *_ in spans
    }


# per-layer metric name -> (unit, better); the order is the report order
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "etaquot.expand.calls": ("count", "lower"),
    "etaquot.expand.terms": ("count", "lower"),
    "etaquot.expand.s": ("s", "lower"),
    "etaquot.euler_factor.s": ("s", "lower"),
    "qseries.mul.calls": ("count", "lower"),
    "qseries.mul.s": ("s", "lower"),
    "qseries.mul.coeff_products": ("count", "lower"),
    "qseries.mul.exact_calls": ("count", "lower"),
    "qseries.init.calls": ("count", "lower"),
    "qseries.init.coeffs": ("count", "lower"),
    "qseries.init.s": ("s", "lower"),
    "qseries.inverse.calls": ("count", "lower"),
    "qseries.inverse.s": ("s", "lower"),
    "qseries.reduce_mod.s": ("s", "lower"),
    "qseries.first_mismatch.s": ("s", "lower"),
    "qseries.first_mismatch.coeffs": ("count", "lower"),
    "operators.theta.s": ("s", "lower"),
    "operators.twist.s": ("s", "lower"),
    "operators.u_operator.s": ("s", "lower"),
    "operators.coeffs": ("count", "lower"),
    "eisenstein.build.calls": ("count", "lower"),
    "eisenstein.build.terms": ("count", "lower"),
    "eisenstein.build.s": ("s", "lower"),
    "congruence.cache.lookups": ("count", "lower"),
    "congruence.cache.misses": ("count", "lower"),
    "congruence.cache.hit_ratio": ("ratio", "higher"),
    "congruence.cache.terms_expanded": ("count", "lower"),
    "congruence.cache.terms_retained": ("count", "lower"),
    **{
        f"congruence.verify.{kind}.{part}": ("s", "lower")
        for kind in VERIFY_KINDS
        for part in ("s", "self_s")
    },
    "congruence.prime_scan.primes_checked": ("count", "higher"),
    "congruence.scan.s": ("s", "lower"),
    "congruence.scan.self_s": ("s", "lower"),
    "congruence.scan.candidates": ("count", "lower"),
    "congruence.scan.survivors": ("count", "lower"),
    "congruence.pool.busy_s": ("s", "lower"),
    "congruence.pool.idle_s": ("s", "lower"),
    "oracles.primes_up_to.calls": ("count", "lower"),
    "oracles.primes_up_to.s": ("s", "lower"),
    "claims.builtin_claims.s": ("s", "lower"),
    "cli.format_polynomial.s": ("s", "lower"),
    "sturm.bound.sum": ("count", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: List[Span], untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    """Aggregate spans into the PER_LAYER metrics.

    Calls, times and counts are taken from outermost spans only: a span
    nested inside another span of the same name (E_k built from G_k) is
    part of its ancestor's work.  `traced_wall - untraced_wall` is the
    tracing overhead.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s[1] is not None:
            kids.setdefault(s[1], []).append(s)

    def outermost(s: Span) -> bool:
        parent = s[1]
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                return True
            if p[2] == s[2]:
                return False
            parent = p[1]
        return True

    groups: Dict[str, List[Span]] = {}
    for s in spans:
        if outermost(s):
            groups.setdefault(s[2], []).append(s)

    def calls(name: str) -> int:
        return len(groups.get(name, ()))

    def secs(name: str) -> float:
        return sum(s[4] - s[3] for s in groups.get(name, ()))

    def self_secs(name: str) -> float:
        return sum(selfs[s[0]] for s in groups.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum((s[7] or {}).get(key, 0) for s in groups.get(name, ()))

    m: Dict[str, float] = {}
    m["etaquot.expand.calls"] = calls("etaquot.expand")
    m["etaquot.expand.terms"] = attr_sum("etaquot.expand", "terms")
    m["etaquot.expand.s"] = secs("etaquot.expand")
    m["etaquot.euler_factor.s"] = secs("etaquot.euler_factor")

    muls = groups.get("qseries.mul", ())
    m["qseries.mul.calls"] = len(muls)
    m["qseries.mul.s"] = secs("qseries.mul")
    m["qseries.mul.coeff_products"] = attr_sum("qseries.mul", "products")
    m["qseries.mul.exact_calls"] = sum(1 for s in muls if s[7]["exact"])
    m["qseries.init.calls"] = calls("qseries.init")
    m["qseries.init.coeffs"] = attr_sum("qseries.init", "coeffs")
    m["qseries.init.s"] = secs("qseries.init")
    m["qseries.inverse.calls"] = calls("qseries.inverse")
    m["qseries.inverse.s"] = secs("qseries.inverse")
    m["qseries.reduce_mod.s"] = secs("qseries.reduce_mod")
    m["qseries.first_mismatch.s"] = secs("qseries.first_mismatch")
    m["qseries.first_mismatch.coeffs"] = attr_sum("qseries.first_mismatch", "coeffs")

    for op in ("theta", "twist", "u_operator"):
        m[f"operators.{op}.s"] = secs(f"operators.{op}")
    m["operators.coeffs"] = sum(
        attr_sum(f"operators.{op}", "coeffs") for op in ("theta", "twist", "u_operator")
    )

    m["eisenstein.build.calls"] = calls("eisenstein.build")
    m["eisenstein.build.terms"] = attr_sum("eisenstein.build", "terms")
    m["eisenstein.build.s"] = secs("eisenstein.build")

    lookups = groups.get("congruence.cache", ())
    misses = 0
    expanded = 0
    retained: Dict[Tuple[str, str], int] = {}
    for s in lookups:
        expansions = [k for k in kids.get(s[0], ()) if k[2] == "etaquot.expand"]
        if expansions:
            misses += 1
        for k in expansions:
            terms = k[7]["terms"]
            expanded += terms
            key = (k[7]["form"], k[7]["ring"])
            retained[key] = max(retained.get(key, 0), terms)
    m["congruence.cache.lookups"] = len(lookups)
    m["congruence.cache.misses"] = misses
    m["congruence.cache.hit_ratio"] = (len(lookups) - misses) / len(lookups) if lookups else 0.0
    m["congruence.cache.terms_expanded"] = expanded
    m["congruence.cache.terms_retained"] = sum(retained.values())

    for kind in VERIFY_KINDS:
        m[f"congruence.verify.{kind}.s"] = secs(f"congruence.verify.{kind}")
        m[f"congruence.verify.{kind}.self_s"] = self_secs(f"congruence.verify.{kind}")
    m["congruence.prime_scan.primes_checked"] = attr_sum(
        "congruence.verify.prime-power", "primes_checked"
    ) + attr_sum("congruence.verify.unit-factor", "primes_checked")

    scans = groups.get("congruence.scan", ())
    m["congruence.scan.s"] = secs("congruence.scan")
    m["congruence.scan.self_s"] = self_secs("congruence.scan")
    m["congruence.scan.candidates"] = attr_sum("congruence.scan", "candidates")
    # an ell survives the exact prescan when the scan asks for its mod-ell expansion
    m["congruence.scan.survivors"] = sum(
        1
        for s in scans
        for k in kids.get(s[0], ())
        if k[2] == "congruence.cache" and k[7]["ring"].startswith("Z/")
    )

    busy = idle = 0.0
    for s in groups.get("congruence.verify_claims", ()):
        jobs = s[7]["jobs"]
        if jobs > 1:
            worked = sum(k[4] - k[3] for k in kids.get(s[0], ()) if k[2] == "congruence.verify_claim")
            busy += worked
            idle += jobs * (s[4] - s[3]) - worked
    m["congruence.pool.busy_s"] = busy
    m["congruence.pool.idle_s"] = idle

    m["oracles.primes_up_to.calls"] = calls("oracles.primes_up_to")
    m["oracles.primes_up_to.s"] = secs("oracles.primes_up_to")
    m["claims.builtin_claims.s"] = secs("claims.builtin_claims")
    m["cli.format_polynomial.s"] = secs("cli.format_polynomial")
    m["sturm.bound.sum"] = attr_sum("sturm.bound", "value")
    m["trace.unattributed_s"] = self_secs("cli.main")
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: m[name] for name in PER_LAYER}
