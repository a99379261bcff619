"""Per-layer tracing of cosymkit from outside the package.

The tracer wraps public functions and methods of each cosymkit module and
restores them afterwards; nothing inside ``src/cosymkit`` changes.  A
function imported by name into several modules is patched at every binding
(found by identity), so a call through any import path is seen.

Hot leaf calls (frames, solves, right-hand sides, scalar evaluations, ...)
are aggregated per (function, calling layer) as a count, a total time and a
child time.  Coarse calls (sections, integrations, lattice work) also keep a
full span with its parent span, in memory, for attribution.

Metrics refer to a target by its label, never by its function name, so a
renamed function is edited in ``TARGETS`` alone.  ``Tracer.problems`` lists
targets that bound nowhere and layers that were not called where the workload
says they must be; the traced run fails on any of them.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple


class Target(NamedTuple):
    """A function or method to wrap, and where its calls are counted."""

    module: str
    path: str  # attribute path inside the module
    layer: str
    kind: str  # "hot" aggregates only; "span" also records a span
    label: str  # metric group; several functions may share one
    section: str | None = None  # report section, for calls the cli makes


# A target that binds nowhere (renamed, inlined, moved) is reported by
# ``Tracer.problems`` and fails the traced run, so its metrics cannot read as
# a silent zero.
TARGETS = [
    Target("cosymkit.cosym", "Frame.__init__", "cosym", "hot", "frame"),
    Target("cosymkit.cosym", "Frame.solve", "cosym", "hot", "solve"),
    Target("cosymkit.cosym", "Frame.bracket", "cosym", "hot", "bracket"),
    Target("cosymkit.cosym", "StructureVectorField.__call__", "cosym", "hot", "rhs"),
    Target("cosymkit.cosym", "CosymplecticStructure.validate", "cosym", "span", "validate",
           "validate"),
    Target("cosymkit.fields", "ScalarField.value", "fields", "hot", "scalar"),
    Target("cosymkit.fields", "ScalarField.gradient", "fields", "hot", "scalar"),
    Target("cosymkit.fields", "ScalarField.jet1", "fields", "hot", "scalar"),
    Target("cosymkit.fields", "ScalarField.__call__", "fields", "hot", "scalar"),
    Target("cosymkit.fields", "OneFormField.at", "fields", "hot", "form"),
    Target("cosymkit.fields", "OneFormField.exterior_derivative", "fields", "hot", "form"),
    Target("cosymkit.fields", "TwoFormField.at", "fields", "hot", "form"),
    Target("cosymkit.fields", "TwoFormField.exterior_derivative", "fields", "hot", "form"),
    Target("cosymkit.fields", "TwoFormField.component_gradient", "fields", "hot", "form"),
    Target("cosymkit.fields", "fd_jacobian", "fields", "hot", "stencil"),
    Target("cosymkit.fields", "scalar_fd_gradient", "fields", "hot", "stencil"),
    Target("cosymkit.fields", "lie_bracket", "fields", "hot", "lie_bracket"),
    Target("cosymkit.exprlang", "parse", "exprlang", "hot", "parse"),
    Target("cosymkit.flow", "Trajectory.state_at", "flow", "hot", "dense"),
    Target("cosymkit.flow", "integrate", "flow", "span", "integrate", "flow"),
    Target("cosymkit.flow", "drift_report", "flow", "span", "drift", "flow"),
    # the label of an integrability check names its metric
    Target("cosymkit.integrability", "check_first_integrals", "integrability", "span",
           "first_integrals", "verify"),
    Target("cosymkit.integrability", "check_commuting_prefix", "integrability", "span",
           "commuting_prefix", "verify"),
    Target("cosymkit.integrability", "check_independence", "integrability", "span",
           "independence", "verify"),
    Target("cosymkit.integrability", "check_symmetry_algebra", "integrability", "span",
           "symmetry_algebra", "verify"),
    Target("cosymkit.integrability", "check_fiber_tangency", "integrability", "span",
           "fiber_tangency", "verify"),
    Target("cosymkit.integrability", "bracket_closure_and_corank", "integrability", "span",
           "closure_corank", "verify"),
    Target("cosymkit.integrability", "check_bracket_of_integrals", "integrability", "span",
           "bracket_of_integrals", "verify"),
    Target("cosymkit.integrability", "sample_fiber", "integrability", "span",
           "sample_fiber", "verify"),
    Target("cosymkit.actionangle", "find_fiber_point", "actionangle", "span", "fiber_solve",
           "actions"),
    Target("cosymkit.actionangle", "torus_lattice", "actionangle", "span", "lattice",
           "actions"),
    Target("cosymkit.actionangle", "detect_period_lattice", "actionangle", "span", "detect"),
    Target("cosymkit.actionangle", "_near_return_candidates", "actionangle", "span",
           "candidates"),
    Target("cosymkit.actionangle", "refine_lattice_vector", "actionangle", "span", "refine"),
    Target("cosymkit.actionangle", "align_lattice_to_angles", "actionangle", "span", "align"),
    Target("cosymkit.actionangle", "action_integrals", "actionangle", "span", "actions",
           "actions"),
    Target("cosymkit.actionangle", "line_integral", "actionangle", "span", "line_integral"),
    Target("cosymkit.actionangle", "b_matrix", "actionangle", "span", "b_matrix",
           "frequencies"),
    Target("cosymkit.actionangle", "solve_frequencies", "actionangle", "span",
           "solve_frequencies", "frequencies"),
    Target("cosymkit.actionangle", "evaluation_frequencies", "actionangle", "span",
           "evaluation_frequencies", "frequencies"),
    Target("cosymkit.scenarios", "load_scenario_file", "scenarios", "span", "load"),
]

TARGET_AT = {t.path: t for t in TARGETS}
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))
SECTION_OF = {t.label: t.section for t in TARGETS if t.section}
INTEGRABILITY_CHECKS = [t.label for t in TARGETS if t.layer == "integrability"]


class _CountingField:
    """Forwards a flow's right-hand side and counts its evaluations."""

    __slots__ = ("_field", "calls")

    def __init__(self, field):
        self._field = field
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self._field(x)

    def __getattr__(self, name):
        return getattr(self._field, name)


class Tracer:
    """Aggregates and spans for one traced pass."""

    def __init__(self):
        # stack entries: [layer, child_seconds, enclosing span index or None]
        self.stack = [["bench", 0.0, None]]
        self.agg = {}  # (target path, caller layer) -> [count, total_s, child_s]
        self.spans = []
        self.bindings = 0
        self.missing = []  # targets that bound nowhere
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, target):
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = time.perf_counter
        path, layer, label = target.path, target.layer, target.label
        is_span = target.kind == "span"

        def wrapper(*args, **kwargs):
            caller = stack[-1]
            if is_span:
                span = {"label": label, "caller": caller[0], "parent": caller[2]}
                entry = [layer, 0.0, len(spans)]
                spans.append(span)
                if label == "integrate" and args:
                    counter = _CountingField(args[0])
                    args = (counter,) + args[1:]
                elif label == "integrate":
                    counter = kwargs["field"] = _CountingField(kwargs["field"])
            else:
                entry = [layer, 0.0, caller[2]]
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if is_span:
                    span["error"] = type(err).__name__
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                caller[1] += dt
                key = (path, caller[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += entry[1]
                if is_span:
                    span["s"] = dt
                    span["child_s"] = entry[1]
            if is_span:
                if label == "integrate":
                    span["evals"] = counter.calls
                    span["accepted"] = len(result.times) - 1
                    span["first_step"] = bool(
                        kwargs.get("first_step", args[7] if len(args) > 7 else None)
                    )
                elif label == "candidates":
                    span["n"] = len(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        for target in TARGETS:
            if not self._install(target):
                self.missing.append(f"{target.module}.{target.path}")

    def _install(self, target) -> int:
        """Patch every binding of ``target``; the number of sites patched."""
        module = sys.modules.get(target.module)
        if module is None:
            return 0
        owner_name, _, attr = target.path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if original is None:
                return 0
            self._patch(owner, attr, self._wrap(original, target))
            return 1
        original = getattr(module, attr, None)
        if original is None:
            return 0
        wrapper = self._wrap(original, target)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cosymkit" and not mod_name.startswith("cosymkit."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)
                    sites += 1
        return sites

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
        self.bindings += 1

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def op(self, scenario):
        """Span for one cosym command; calls made from cli code see layer 'cli'."""
        caller = self.stack[-1]
        span = {"label": "op", "scenario": scenario, "caller": caller[0], "parent": caller[2]}
        entry = ["cli", 0.0, len(self.spans)]
        self.spans.append(span)
        self.stack.append(entry)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            caller[1] += dt
            span["s"] = dt
            span["child_s"] = entry[1]

    # -- checks and metrics ---------------------------------------------------

    def idle(self) -> list:
        """Targets that bound but were never called in the traced pass."""
        called = {path for path, _ in self.agg}
        return [t.path for t in TARGETS if t.path not in called]

    def problems(self, silent_layers=()) -> list:
        """Why the per-layer metrics cannot be trusted, if they cannot.

        Every target must bind somewhere, and every layer must be called,
        except the ``silent_layers``, which must not be.
        """
        out = [f"trace target binds nowhere: {name}" for name in self.missing]
        calls = dict.fromkeys(LAYERS, 0)
        for (path, _), (n, _, _) in self.agg.items():
            calls[TARGET_AT[path].layer] += n
        for layer, n in calls.items():
            if layer in silent_layers and n:
                out.append(f"layer {layer} made {n} calls; the workload predicts none")
            elif layer not in silent_layers and not n:
                out.append(f"layer {layer} made no calls")
        return out

    def _calls(self, *labels):
        count, total, child = 0, 0.0, 0.0
        for (path, _), (n, t, c) in self.agg.items():
            if TARGET_AT[path].label in labels:
                count += n
                total += t
                child += c
        return count, total, child

    def metrics(self, traced_wall: float, overhead: float, scenarios) -> dict:
        """Per-layer metrics of the traced pass; shares are of ``traced_wall``
        and ``overhead`` is the traced minus the untraced pass time."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def per_call_us(seconds, count):
            return seconds / count * 1e6 if count else 0.0

        frames, frame_t, frame_c = self._calls("frame")
        solves, solve_t, _ = self._calls("solve")
        rhs, rhs_t, _ = self._calls("rhs")
        brackets, bracket_t, _ = self._calls("bracket")
        frame_self = frame_t - frame_c
        put("cosym.frames", frames, "count")
        put("cosym.frame_self_s", frame_self, "s")
        put("cosym.frame_us", per_call_us(frame_self, frames), "us")
        put("cosym.solves", solves, "count")
        put("cosym.solve_s", solve_t, "s")
        put("cosym.solve_us", per_call_us(solve_t, solves), "us")
        put("cosym.frame_share", (frame_self + solve_t) / traced_wall, "ratio")
        put("cosym.rhs_evals", rhs, "count")
        put("cosym.rhs_s", rhs_t, "s")
        put("cosym.rhs_us", per_call_us(rhs_t, rhs), "us")
        put("cosym.brackets", brackets, "count")
        put("cosym.bracket_s", bracket_t, "s")

        scalar, scalar_t, _ = self._calls("scalar")
        forms, form_t, _ = self._calls("form")
        stencils, stencil_t, _ = self._calls("stencil")
        parses, parse_t, _ = self._calls("parse")
        put("fields.scalar_calls", scalar, "count")
        put("fields.scalar_s", scalar_t, "s")
        put("fields.scalar_us", per_call_us(scalar_t, scalar), "us")
        put("fields.form_calls", forms, "count")
        put("fields.form_s", form_t, "s")
        put("fields.stencil_calls", stencils, "count")
        put("fields.stencil_s", stencil_t, "s")
        put("exprlang.parse_calls", parses, "count")
        put("exprlang.parse_s", parse_t, "s")

        spans = self.spans
        for label in INTEGRABILITY_CHECKS:
            put(f"integrability.{label}_s", sum(s["s"] for s in spans if s["label"] == label), "s")
        check_labels = set(INTEGRABILITY_CHECKS)

        def inside(span, labels):
            parent = span["parent"]
            while parent is not None:
                if spans[parent]["label"] in labels:
                    return True
                parent = spans[parent]["parent"]
            return False

        outermost = sum(
            s["s"] for s in spans if s["label"] in check_labels and not inside(s, check_labels)
        )
        put("integrability.share", outermost / traced_wall, "ratio")

        flows = [s for s in spans if s["label"] == "integrate"]
        accepted = sum(s["accepted"] for s in flows)
        # DP5(4) with FSAL: one evaluation at x0, one for the initial step
        # guess unless first_step was given, then six per attempted step
        attempted = sum(
            (s["evals"] - (1 if s["first_step"] else 2)) // 6 for s in flows if s["evals"] > 1
        )
        flow_self = sum(s["s"] - s["child_s"] for s in flows)
        dense, dense_t, _ = self._calls("dense")
        put("flow.integrations", len(flows), "count")
        put("flow.steps_accepted", accepted, "count")
        put("flow.steps_rejected", attempted - accepted, "count")
        put("flow.accept_ratio", accepted / attempted if attempted else 0.0, "ratio")
        put("flow.self_s", flow_self, "s")
        put("flow.step_us", per_call_us(flow_self, attempted), "us")
        put("flow.dense_calls", dense, "count")
        put("flow.dense_s", dense_t, "s")

        def span_sum(label):
            chosen = [s for s in spans if s["label"] == label]
            return len(chosen), sum(s["s"] for s in chosen)

        fiber_n, fiber_t = span_sum("fiber_solve")
        lattice_n, lattice_t = span_sum("lattice")
        refine_n, refine_t = span_sum("refine")
        actions_n, actions_t = span_sum("actions")
        in_detect = [
            s for s in spans
            if s["label"] == "refine" and s["parent"] is not None
            and spans[s["parent"]]["label"] == "detect"
        ]
        rejected = sum(1 for s in in_detect if "error" in s)
        put("actionangle.fiber_solves", fiber_n, "count")
        put("actionangle.fiber_solve_s", fiber_t, "s")
        put("actionangle.lattices", lattice_n, "count")
        put("actionangle.lattice_s", lattice_t, "s")
        put("actionangle.detect_s", span_sum("detect")[1], "s")
        put(
            "actionangle.candidates",
            sum(s.get("n", 0) for s in spans if s["label"] == "candidates"),
            "count",
        )
        put("actionangle.candidates_rejected", rejected, "count")
        put(
            "actionangle.candidate_yield",
            (len(in_detect) - rejected) / len(in_detect) if in_detect else 0.0,
            "ratio",
        )
        put("actionangle.refines", refine_n, "count")
        put("actionangle.refine_s", refine_t, "s")
        put(
            "actionangle.refine_integrations",
            sum(
                1 for s in flows
                if s["parent"] is not None and spans[s["parent"]]["label"] == "refine"
            ),
            "count",
        )
        put("actionangle.align_s", span_sum("align")[1], "s")
        put("actionangle.actions_calls", actions_n, "count")
        put("actionangle.actions_s", actions_t, "s")
        put("actionangle.line_integral_s", span_sum("line_integral")[1], "s")
        put("actionangle.b_matrix_s", span_sum("b_matrix")[1], "s")

        loads, load_t = span_sum("load")
        put("scenarios.loads", loads, "count")
        put("scenarios.load_s", load_t, "s")

        for section in ("validate", "verify", "flow", "actions", "frequencies"):
            put(
                f"section.{section}_s",
                sum(
                    s["s"] for s in spans
                    if s["caller"] == "cli" and SECTION_OF.get(s["label"]) == section
                ),
                "s",
            )
        for scenario in scenarios:
            put(
                f"op.{scenario}_s",
                sum(s["s"] for s in spans if s["label"] == "op" and s["scenario"] == scenario),
                "s",
            )
        put("trace.bindings", self.bindings, "count")
        put("trace.overhead_s", overhead, "s")
        return out
