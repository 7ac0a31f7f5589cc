"""Spans around calls into the scx layers, recorded from outside the library.

The library is not edited.  ``Tracer.installed()`` swaps chosen public
functions for timing wrappers, under every name the ``scx`` modules bind
them to (the modules use from-imports, so a function lives under several
module attributes), and puts the originals back on exit.

A span is (layer, start, end, parent, item).  A wrapped call made while a
span of the same layer is innermost opens no new span, so a layer calling
itself (``lp_solve_max`` -> ``lp_solve``) counts once.  Self time is a
span's duration minus the durations of its direct children; spans nest
strictly because the benchmark runs one item at a time on one thread.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import warnings
from array import array
from collections import defaultdict
from contextlib import contextmanager

ROOT = "item"


def _shape(mat):
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return tuple(shape)
    rows = len(mat)
    return rows, (len(mat[0]) if rows else 0)


# Per-layer counters read off the arguments and result of a finished call.
def _faces(tr, args, result):
    x, k = args[0], args[1]
    seen = tr.item_faces.setdefault(id(x), (x, set()))[1]
    if k not in seen:
        seen.add(k)
        tr.add("complexes.faces.enumerated", len(result))


def _coboundary(tr, args, result):
    tr.add("homology.coboundary.entries", result.size)


def _formula(tr, args, result):
    tr.add("homology.laplacian.formula.entries", result[0].size + result[1].size)


def _eigen(tr, args, result):
    side = _shape(args[0])[0]
    tr.add("numerics.eigen.flops_est", side ** 3)
    tr.add("numerics.eigen.bytes_est", 8 * side * side)
    tr.peak("numerics.eigen.max_side", side)


def _rank(tr, args, result):
    rows, cols = _shape(args[0])
    tr.add("numerics.rank.entries", rows * cols)
    tr.peak("numerics.rank.max_side", max(rows, cols))


def _lp(tr, args, result):
    if len(args) == 1:  # lp_solve(LpProblem)
        rows, cols = len(args[0].A), len(args[0].c)
    else:  # lp_solve_max(c, A, b)
        rows, cols = len(args[1]), len(args[0])
    tr.add("numerics.lp.entries", rows * cols)
    tr.add("numerics.lp.optimal", result.status == "optimal")


def _hall(tr, args, result):
    tr.add("domination.hall.applicable", "not applicable" not in result.note)


def layer_table():
    """(layer, owner, attribute, counter) for every wrapped function.

    ``owner`` is the module or class that defines the function; the
    wrapper also replaces every other ``scx`` module attribute bound to
    the same object.  A function missing from the library is skipped, so
    the benchmark keeps running across refactors.  scx is imported here
    so that importing this module does not import it.
    """
    import scx.campaigns as campaigns
    import scx.complexes as complexes
    import scx.domination as domination
    import scx.homology as homology
    import scx.matroids as matroids
    import scx.numerics.eigen as eigen
    import scx.numerics.lp as lp
    import scx.numerics.rational as rational
    import scx.randomgen as randomgen
    import scx.reports as reports
    import scx.spectral_checks as spectral_checks

    table = [
        ("campaigns", campaigns, "run_suite", None),
        ("campaigns", campaigns, "run_reproduce", None),
        ("complexes.faces", complexes.Complex, "faces", _faces),
        ("homology.coboundary", homology, "coboundary_matrix", _coboundary),
        ("homology.laplacian.formula", homology, "laplacian_from_formula", _formula),
        ("homology.laplacian.products", homology, "laplacian_from_products", None),
        ("homology.laplacians", homology, "laplacians", None),
        ("homology.spectrum", homology, "spectrum", None),
        ("homology.betti_exact", homology, "betti_exact", None),
        ("homology.eta", homology, "eta", None),
        ("numerics.eigen", eigen, "eigenvalues_sym", _eigen),
        ("numerics.rank", rational, "rank_exact", _rank),
        ("numerics.lp", lp, "lp_solve", _lp),
        ("numerics.lp", lp, "lp_solve_max", _lp),
        ("domination.rep_value", domination, "rep_value", None),
        ("domination.total_domination", domination, "total_domination", None),
        ("domination.hall", domination, "check_colorful_hall", _hall),
        ("domination", domination, "check_domination_bound", None),
        ("domination", domination, "check_connectivity_bound", None),
        ("domination", domination, "check_rep_eigen_bound", None),
        ("matroids.phi", matroids, "phi", None),
        ("matroids.phi_star", matroids, "phi_star", None),
        ("matroids.gp_search", matroids, "colorful_gp_search", None),
        ("matroids", matroids, "check_fractional_gp_hall", None),
        ("matroids", matroids, "check_gp_hall", None),
        ("matroids", matroids, "ag23_complex", None),
        ("matroids", matroids, "pg33_complex", None),
        ("reports", reports, "digest", None),
        ("reports", reports.VerificationReport, "to_json", None),
    ]
    table += [("spectral_checks", spectral_checks, name, None)
              for name in spectral_checks.__all__ if name.startswith("check_")]
    table += [("randomgen", randomgen, name, None)
              for name in ("trial_rng", "random_complex", "random_single_layer_complex",
                           "random_representation", "random_partition",
                           "random_linear_matroid", "random_matroid")]
    return table


def counted_methods():
    """(counter, class, attribute): calls counted without a span, because
    they are too many and too short for one."""
    import scx.matroids as matroids

    return [("matroids.rank_mask.calls", matroids.LinearMatroid, "rank_mask"),
            ("matroids.rank_mask.calls", matroids.UniformMatroid, "rank_mask")]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.layers = [ROOT]
        self._layer_id = {ROOT: 0}
        # flat columns, compact because a pass opens tens of thousands of
        # spans: layer id, start, end, parent span (-1 at the root), item
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("i")
        self.counts = defaultdict(int)
        self.item_faces = {}
        self._stack = []  # (span index, layer id)
        self._warnings = None
        self._warned = 0
        self.warnings = defaultdict(int)

    # -- counters ------------------------------------------------------

    def add(self, name, n=1):
        self.counts[name] += n

    def peak(self, name, n):
        if n > self.counts[name]:
            self.counts[name] = n

    # -- spans ---------------------------------------------------------

    def _layer(self, name):
        lid = self._layer_id.get(name)
        if lid is None:
            lid = self._layer_id[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def _claim_warnings(self, lid):
        """Charge warnings raised since the last claim to layer ``lid``:
        called when a span opens (for its parent) and when it closes."""
        log = self._warnings
        if log is not None and len(log) > self._warned:
            for w in log[self._warned:]:
                if issubclass(w.category, RuntimeWarning):
                    self.warnings[self.layers[lid]] += 1
            self._warned = len(log)

    def _open(self, lid, item):
        stack = self._stack
        if stack:
            self._claim_warnings(stack[-1][1])
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.item.append(item)
        self.end.append(0.0)
        stack.append((idx, lid))
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        _, lid = self._stack.pop()
        self._claim_warnings(lid)

    def wrap(self, layer, fn, counter=None):
        lid = self._layer(layer)
        self.add(f"{layer}.calls", 0)

        def traced(*args, **kwargs):
            stack = self._stack
            if not stack or stack[-1][1] == lid:
                return fn(*args, **kwargs)
            idx = self._open(lid, self.item[stack[0][0]])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[f"{layer}.calls"] += 1
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        counts = self.counts
        counts[name] += 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def item_span(self, item):
        """Root span of one item; warnings inside are charged to layers."""
        self.item_faces = {}
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            self._warnings, self._warned = log, 0
            idx = self._open(0, item)
            try:
                yield
            finally:
                self._close(idx)
                self._warnings = None
        self.item_faces = {}

    @contextmanager
    def installed(self):
        """Swap the traced functions in; always restore the originals."""
        patches = []
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "scx" or name.startswith("scx."))]

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for layer, owner, attr, counter in layer_table():
                orig = owner.__dict__.get(attr)
                if orig is None:  # gone from the library: its layer reads 0
                    continue
                new = self.wrap(layer, orig, counter)
                patch(owner, attr, new)
                if isinstance(owner, type):
                    continue
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is orig and (mod, name) != (owner, attr):
                            patch(mod, name, new)
            for name, cls, attr in counted_methods():
                if attr in cls.__dict__:
                    patch(cls, attr, self.count(name, cls.__dict__[attr]))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    # -- results -------------------------------------------------------

    def self_times(self):
        """Seconds per layer, each span less its direct children."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(float)
        for i in range(n):
            out[self.layers[self.layer[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path, item_keys):
        """Spans as gzipped JSON lines: layer, start, end, parent, item;
        the first line names the layer and item ids."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"layers": self.layers, "items": item_keys}) + "\n")
            for i in range(len(self.layer)):
                fh.write(json.dumps([self.layer[i], round(self.start[i], 7),
                                     round(self.end[i], 7), self.parent[i],
                                     self.item[i]]) + "\n")
