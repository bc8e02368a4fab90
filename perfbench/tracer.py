"""In-memory span tracer installed around monolink's public functions.

The wrappers live here, in the benchmark, not in the package: `install`
replaces every name a caller looks up (the function in its defining module
and each `from .x import f` copy in the other modules, and the methods on
the class) and `uninstall` puts the originals back, so untraced passes run
the unmodified code.

A span is `[name, start, end, parent, attrs]`, with `parent` the index of
the enclosing span or -1.  A span's self time is its duration minus the
durations of its direct children; the package is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("combinatorics", "lattice", "manifold", "polyring", "pairings", "witten", "cli")

# Module-level functions traced at every name they are bound to.
FUNCTIONS = {
    "combinatorics": (
        "pochhammer",
        "ext_binomial",
        "jacobi_at_zero",
        "jacobi_general",
        "hypergeometric_terminating",
        "jacobi_via_hypergeometric",
        "triple_sum_lhs",
        "vandermonde_check",
    ),
    "lattice": (
        "pair",
        "square",
        "is_characteristic",
        "is_good",
        "orthogonal_complement",
        "find_hyperbolic_pair",
        "lambda_candidates",
        "blow_up",
    ),
    "manifold": (
        "c1_squared",
        "holomorphic_euler",
        "c_of_X",
        "dims_asd",
        "dim_sw",
        "normal_indices",
        "level",
        "r_and_i",
        "degree_parity_ok",
        "orientation_sign",
        "blow_up_manifold",
        "blow_up_spinc",
        "blow_up_spinu",
        "require_odd_b_plus",
    ),
    "polyring": ("zero", "constant", "variable", "linear_form", "quadratic_form"),
    "pairings": (
        "s_constants",
        "segre_coefficient",
        "segre_coefficient_by_inversion",
        "instanton_pairing",
        "link_pairing_closed",
        "b0_coefficient",
        "link_pairing_raw",
        "blow_up_pairing_closed",
        "blow_up_pairing_polarized",
    ),
    "witten": (
        "sw_series",
        "sw_vanishing_check",
        "donaldson_moment",
        "assemble_donaldson_series",
        "verify_witten",
        "sign_change_check",
    ),
    "cli": ("main", "load_catalog_fixture", "parse_fixture"),
}

# Traced only where another layer looks them up: inside their own layer
# they run in tight loops (a million lookups per identity-sweep pass), and
# their time there belongs to that layer anyway.
CROSS_LAYER_ONLY = {"combinatorics.pochhammer", "combinatorics.ext_binomial"}

# (module, class) -> {method: span name suffix}.  `TruncatedPolynomial`'s
# `__mul__` is wrapped apart (see `_install_mul`); a product by a scalar
# goes through `__rmul__` and is recorded as `polyring.scale`.
METHODS = {
    ("polyring", "TruncatedPolynomial"): {
        "__post_init__": "init",
        "__add__": "add",
        "__sub__": "sub",
        "__neg__": "neg",
        "__rmul__": "scale",
        "__pow__": "pow",
        "__eq__": "eq",
        "exp_series": "exp_series",
        "inverse": "inverse",
        "homogeneous_part": "homogeneous_part",
        "truncate": "truncate",
        "coefficient": "coefficient",
        "evaluate": "evaluate",
        "render": "render",
        "digest": "digest",
    },
    ("lattice", "CohomologyClass"): {
        "__add__": "CohomologyClass.add",
        "__sub__": "CohomologyClass.sub",
        "__neg__": "CohomologyClass.neg",
        "__rmul__": "CohomologyClass.scale",
    },
    ("lattice", "IntersectionForm"): {"__init__": "IntersectionForm.init"},
}


class Tracer:
    """Records spans while installed; keeps them until the process ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, ml) -> None:
        """Wrap the traced names of the monolink modules held by `ml`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [ml.package] + [getattr(ml, layer) for layer in LAYERS]
        for layer, names in FUNCTIONS.items():
            for fname in names:
                home = getattr(ml, layer)
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if mod is home and name in CROSS_LAYER_ONLY:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(getattr(ml, layer), cls_name)
            for meth, suffix in methods.items():
                self._patch(cls, meth, self._wrap(f"{layer}.{suffix}", vars(cls)[meth]))
        self._install_mul(ml.polyring.TruncatedPolynomial)

    def _install_mul(self, poly_cls) -> None:
        # Only polynomial-by-polynomial products are `polyring.mul` spans;
        # `p * scalar` calls `__rmul__`, which is traced as `polyring.scale`.
        original = vars(poly_cls)["__mul__"]
        traced = self._wrap(
            "polyring.mul",
            original,
            attrs=lambda args, out: (
                len(args[0].terms) * len(args[1].terms),
                len(out.terms),
                args[0].nvars,
            ),
        )

        def mul(self, other):
            if isinstance(other, poly_cls):
                return traced(self, other)
            return original(self, other)

        self._patch(poly_cls, "__mul__", mul)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, ml):
        self.install(ml)
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans: list[list], start: int, stop: int) -> dict:
    """Per span name in `spans[start:stop]`: calls, total and self seconds;
    plus the polynomial-product counts (calls, term pairs, peak result
    terms, largest variable count)."""
    child_time = [0.0] * (stop - start)
    for span in spans[start:stop]:
        if span[3] >= start:
            child_time[span[3] - start] += span[2] - span[1]
    names: dict[str, list] = {}
    mul_calls = term_pairs = peak_terms = nvars_max = 0
    for i, span in enumerate(spans[start:stop]):
        duration = span[2] - span[1]
        entry = names.setdefault(span[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time[i]
        if span[0] == "polyring.mul":
            pairs, out_terms, nvars = span[4]
            mul_calls += 1
            term_pairs += pairs
            peak_terms = max(peak_terms, out_terms)
            nvars_max = max(nvars_max, nvars)
    return {"names": names, "mul": (mul_calls, term_pairs, peak_terms, nvars_max)}
