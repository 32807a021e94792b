"""Spans around calls into exoticaffine, installed at run time from outside.

The package itself has no tracing yet, so the traced run rebinds the public
functions named in SPANS, in every module namespace that binds them (a
function imported with `from .fpgroups import smith_normal_form` is wrapped
there too).  Each span records its name, start, end, parent span and task
id; spans stay in memory until the run ends.  Self time is a span's
duration minus the time of its child spans; the run is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("cli", "polyring", "grading", "derivations", "constructions",
           "dualgraph", "fpgroups", "smithhom")


def _simplex_count(k) -> int:
    return sum(len(level) for level in k.simplices)


def _count_snf(counts, args, result):
    matrix = args[0]
    counts["fpgroups.snf_entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _count_regular(counts, args, result):
    counts["smithhom.simplices_in"] += _simplex_count(args[0])
    counts["smithhom.simplices_regular"] += _simplex_count(result[0])
    counts["smithhom.subdivision_rounds"] += result[2]


def _homology_name(args, kwargs):
    chain = args[0] if args else kwargs["c"]
    return "smithhom.homology_z" if chain.coefficients == "Z" else "smithhom.homology_gfp"


# (module, attribute or Class.method, span name or name function, counter)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("polyring", "parse_polynomial", "polyring.parse", None),
    ("polyring", "normal_form", "polyring.normal_form", None),
    ("polyring", "Polynomial.__mul__", "polyring.mul", None),
    ("polyring", "Polynomial.__pow__", "polyring.mul", None),
    ("polyring", "Polynomial.substitute", "polyring.substitute", None),
    ("grading", "check_appropriate", "grading.check_appropriate", None),
    ("grading", "quotient_degree", "grading.quotient_degree", None),
    ("grading", "canonical_form_decomposition", "grading.canonical_form_decomposition", None),
    ("derivations", "apply", "derivations.apply", None),
    ("derivations", "nilpotency_test", "derivations.nilpotency_test", None),
    ("derivations", "kernel_elements", "derivations.kernel_elements", None),
    ("derivations", "invariant_candidates", "derivations.invariant_candidates", None),
    ("derivations", "exp_flow", "derivations.exp_flow", None),
    ("dualgraph", "resolution_chain", "dualgraph.resolution_chain", None),
    ("dualgraph", "intersection_matrix", "dualgraph.intersection_matrix", None),
    ("dualgraph", "minimalize", "dualgraph.minimalize", None),
    ("fpgroups", "smith_normal_form", "fpgroups.smith_normal_form", _count_snf),
    ("fpgroups", "abelianization", "fpgroups.abelianization", None),
    ("smithhom", "homology", _homology_name, None),
    ("smithhom", "chain_complex", "smithhom.chain_complex", None),
    ("smithhom", "check_regularity", "smithhom.check_regularity", None),
    ("smithhom", "barycentric_subdivide", "smithhom.barycentric_subdivide", None),
    ("smithhom", "ensure_regular", "smithhom.ensure_regular", _count_regular),
    ("smithhom", "smith_operators", "smithhom.smith_operators", None),
    ("smithhom", "operator_power", "smithhom.operator_power", None),
    ("smithhom", "special_smith_homology", "smithhom.special_smith_homology", None),
    ("smithhom", "verify_smith_sequences", "smithhom.verify_smith_sequences", None),
    ("smithhom", "transfer_check", "smithhom.transfer_check", None),
    ("smithhom", "orbit_complex", "smithhom.orbit_complex", None),
    ("smithhom", "relative_homology_dims", "smithhom.relative_homology_dims", None),
]

COUNTS = ("fpgroups.snf_entries", "smithhom.subdivision_rounds",
          "smithhom.simplices_in", "smithhom.simplices_regular")

# Per-span metrics the per-layer report carries, besides module totals.
SPAN_CALLS = ("polyring.parse", "polyring.normal_form", "polyring.mul",
              "grading.check_appropriate", "derivations.apply",
              "fpgroups.smith_normal_form", "smithhom.homology_z", "smithhom.check_regularity")
SPAN_SELF = (
    "cli.build_parser", "polyring.parse", "polyring.normal_form", "polyring.mul",
    "polyring.substitute", "grading.check_appropriate", "grading.quotient_degree",
    "grading.canonical_form_decomposition", "derivations.apply", "derivations.nilpotency_test",
    "derivations.kernel_elements", "derivations.invariant_candidates", "derivations.exp_flow",
    "dualgraph.resolution_chain", "dualgraph.intersection_matrix", "dualgraph.minimalize",
    "fpgroups.smith_normal_form", "fpgroups.abelianization", "smithhom.homology_z",
    "smithhom.chain_complex", "smithhom.homology_gfp", "smithhom.check_regularity",
    "smithhom.barycentric_subdivide", "smithhom.smith_operators", "smithhom.operator_power",
    "smithhom.special_smith_homology", "smithhom.verify_smith_sequences",
    "smithhom.transfer_check", "smithhom.orbit_complex", "smithhom.relative_homology_dims",
)
RUN_METRICS = ("trace.spans", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [("cli.calls", "count"), ("cli.self_s", "s"), ("cli.errors", "count")]
    for module in MODULES[1:]:
        out += [(f"{module}.calls", "count"), (f"{module}.self_s", "s"),
                (f"{module}.errors", "count")]
    out += [(f"{name}.calls", "count") for name in SPAN_CALLS]
    out += [(f"{name}.self_s", "s") for name in SPAN_SELF]
    out += [(name, "count") for name in COUNTS]
    out += [(name, "count" if name == "trace.spans" else "s") for name in RUN_METRICS]
    return out


def _constructions_spans(module):
    return [
        ("constructions", name, f"constructions.{name}", None)
        for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__ == module.__name__
    ]


class Tracer:
    """Holds the spans of one traced pass and the rebinding that records them."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported exoticaffine module
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.stack: list[int] = []
        self.task = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._last_error: dict = {}
        self._restore: list[tuple[object, str, object]] = []

    def _record_error(self, span_name: str, exc: BaseException):
        module = span_name.split(".")[0]
        if self._last_error.get(module) is not exc:  # count once per module
            self._last_error[module] = exc
            self.errors[module] += 1

    def _wrap(self, fn, name, counter):
        names, starts, ends = self.names, self.starts, self.ends
        parents, tasks, stack = self.parents, self.tasks, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_error(names[sid], exc)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        spans = SPANS + _constructions_spans(self.modules["constructions"])
        namespaces = list(self.modules.values())
        for module_name, attr, name, counter in spans:
            module = self.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._rebind(owner, method, self._wrap(original, name, counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, counter)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, key, wrapped)

    def _rebind(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def totals(self) -> tuple[dict, Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_time: dict = defaultdict(float)
        calls: Counter = Counter(self.names)
        for i, name in enumerate(self.names):
            self_time[name] += self.ends[i] - self.starts[i] - child[i]
        return self_time, calls

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        self_time, calls = self.totals()
        values = {
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_time["cli.main"],
            "trace.spans": len(self.names),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        for module in MODULES:
            prefix = module + "."
            if module != "cli":
                values[f"{module}.calls"] = sum(c for n, c in calls.items() if n.startswith(prefix))
                values[f"{module}.self_s"] = sum(
                    s for n, s in self_time.items() if n.startswith(prefix))
            values[f"{module}.errors"] = self.errors[module]
        for name in SPAN_CALLS:
            values[f"{name}.calls"] = calls[name]
        for name in SPAN_SELF:
            values[f"{name}.self_s"] = self_time[name]
        for name in COUNTS:
            values[name] = self.counts[name]
        return values

    def dump(self, path, header: dict):
        """Write every span as [name index, start, end, parent, task]."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round(s - origin, 7), round(e - origin, 7), p, t]
            for n, s, e, p, t in zip(self.names, self.starts, self.ends, self.parents, self.tasks)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(dict(header, names=list(index), fields=["name", "start", "end",
                                                            "parent", "task"], spans=spans),
                      handle, separators=(",", ":"))
