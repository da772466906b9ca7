"""Span tracing of starklat's public functions, installed from outside the package.

`install()` replaces every public function of each starklat module, and the
public methods of `OperatorMatrix` and `ResolventWorkspace`, by a wrapper that
records a span (name, start, end, parent) in memory. Names bound by
`from .x import y` in another starklat module are replaced too, so calls made
through those names are seen. Span names are `<module>.<function>`; methods
drop the class name (`model.symmetry_defect`, `resolvent.resolvent`).

Next to the spans the tracer keeps counts that the calls imply. The byte and
matmul counts are computed from array sizes and argument shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("specfun", "model", "spectra", "localization", "dynamics", "resolvent", "cli")
TRACED_METHODS = {"model": "OperatorMatrix", "resolvent": "ResolventWorkspace"}

COMPLEX_BYTES = 16


class Tracer:
    """In-memory span list plus the computed counts; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = {
            "model.h_nnz": 0,
            "spectra.interior_states": 0,
            "spectra.eigenpairs_filtered": 0,
            "dynamics.cheb_terms": 0,
            "dynamics.matvec_bytes": 0,
            "resolvent.matmuls": 0,
            "resolvent.coupling_builds": 0,
            "resolvent.cache_hits": 0,
            "resolvent.cache_lookups": 0,
        }
        self._couplings = set()
        self._cheb_seen = 0
        self._matvec_bytes = {}
        self._pre = {
            "resolvent.resolvent": lambda args, kwargs: len(args[0].cache),
        }
        self._post = {
            "model.build_hamiltonian": self._on_hamiltonian,
            "model.build_cluster_hamiltonian": self._on_hamiltonian,
            "spectra.interior_mask": self._on_interior_mask,
            "dynamics.chebyshev_coefficients": self._on_cheb_coefficients,
            "dynamics.evolve": self._on_evolve,
            "resolvent.resolvent": self._on_resolvent,
            "resolvent.chain_product": self._on_chain_product,
            "resolvent.functional_equation_residual": self._on_fe_residual,
            "resolvent.inter_cluster_coupling": self._on_coupling,
        }

    def wrap(self, name, fn):
        pre, post = self._pre.get(name), self._post.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if post:
                post(args, kwargs, result, before)
            return result

        return traced

    # hooks: each receives (args, kwargs, result, value of the pre hook)

    def _on_hamiltonian(self, args, kwargs, op, before):
        self.counts["model.h_nnz"] = max(self.counts["model.h_nnz"], int(op.matrix.nnz))

    def _on_interior_mask(self, args, kwargs, mask, before):
        self.counts["spectra.interior_states"] += int(mask.sum())
        self.counts["spectra.eigenpairs_filtered"] += int(mask.size)

    def _on_cheb_coefficients(self, args, kwargs, coef, before):
        # evolve applies the rescaled H once per coefficient after the first
        self.counts["dynamics.cheb_terms"] += int(coef.size) - 1

    def _on_evolve(self, args, kwargs, psi, before):
        op = args[0]
        key = id(op.matrix)
        if key not in self._matvec_bytes:
            m = op.matrix
            # CSR of H - c*I: H's entries plus any diagonal H leaves empty
            nnz = m.nnz + int((m.diagonal() == 0).sum())
            self._matvec_bytes[key] = (
                nnz * (m.data.itemsize + m.indices.itemsize)
                + (op.dim + 1) * m.indptr.itemsize
                + 2 * op.dim * COMPLEX_BYTES
            )
        terms = self.counts["dynamics.cheb_terms"]
        self.counts["dynamics.matvec_bytes"] += (terms - self._cheb_seen) * self._matvec_bytes[key]
        self._cheb_seen = terms

    def _on_resolvent(self, args, kwargs, g, cache_size_before):
        self.counts["resolvent.cache_lookups"] += 1
        if len(args[0].cache) == cache_size_before:
            self.counts["resolvent.cache_hits"] += 1
        else:
            self.counts["resolvent.matmuls"] += 1  # the a @ g residual check

    def _on_chain_product(self, args, kwargs, out, before):
        chain = args[0]
        trailing = args[3] if len(args) > 3 else kwargs["trailing_resolvent"]
        steps = len(chain.sequence) - 1
        # one product with each coupling, one with each resolvent after it
        self.counts["resolvent.matmuls"] += 2 * steps - 1 + int(bool(trailing))

    def _on_fe_residual(self, args, kwargs, res, before):
        self.counts["resolvent.matmuls"] += 1  # I @ G

    def _on_coupling(self, args, kwargs, v, before):
        self.counts["resolvent.coupling_builds"] += 1
        self._couplings.add((args[0].canonical(), args[1].canonical()))

    def metrics(self) -> dict:
        c = self.counts
        lookups = c["resolvent.cache_lookups"]
        filtered = c["spectra.eigenpairs_filtered"]
        return dict(
            c,
            **{
                "resolvent.coupling_distinct": len(self._couplings),
                "resolvent.cache_hit_ratio": c["resolvent.cache_hits"] / lookups if lookups else 0.0,
                "spectra.interior_yield": c["spectra.interior_states"] / filtered if filtered else 0.0,
            },
        )


def install(package) -> Tracer:
    """Wrap starklat's public callables in place and return the tracer."""
    tracer = Tracer()
    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
        cls_name = TRACED_METHODS.get(short)
        if cls_name:
            cls = getattr(mod, cls_name)
            for name, obj in list(vars(cls).items()):
                if not name.startswith("_") and inspect.isfunction(obj):
                    setattr(cls, name, tracer.wrap(f"{short}.{name}", obj))
    # rebinding by identity also catches `from .x import y` copies
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    return tracer


def layer_times(spans: list) -> dict:
    """Per span name: calls, self seconds, and inclusive seconds.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap because the program is single-threaded
    in Python. Inclusive time counts only the outermost span of a name, so a
    name that appears below itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return out
