"""Traced runs: spans around the public functions of every package layer.

The layers are the package modules.  Modules import each other with
`from .x import y`, so a function is wrapped under every module name that
refers to it, not only in the module that defines it.  The package itself
is not changed; `uninstall` puts every original back.

A span records its name, start, end, parent span and item.  Spans stay in
memory and are written out at the end.  Self time is a span's duration
minus the time its child spans cover.  The hottest calls (core
construction and comparison, substitution, printing) run millions of
times on the corpus; they are not kept one by one but summed into counts
and times per (parent span, name), which is enough for self time and
keeps the trace small.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> {function: group}.  A span is named "<layer>.<group>".
TARGETS = {
    "syntax": {
        "parse_term": "parse",
        "parse_type": "parse",
        "parse_program": "parse",
        "load_program": "load",
        "tokenize": "tokenize",
        "print_term": "print",
        "print_type": "print",
        "print_basis": "print",
    },
    "cli": {"main": "main"},
    "core": {
        **{
            f: "construct"
            for f in (
                "add", "scale", "sub", "single",
                "mk_pair", "mk_app", "mk_lam", "mk_letpair", "mk_case",
            )
        },
        "term_eq": "term_eq",
        "inner_product": "inner_product",
    },
    "basis": {"decompose": "decompose"},
    "subst": {
        f: "subst"
        for f in (
            "subst_term", "subst_dist", "subst_basis", "subst_tensor",
            "apply_sigma",
        )
    },
    "reduction": {"evaluate": "evaluate", "step": "step"},
    "typesem": {
        "is_member": "member",
        "is_member_phase": "member",
        "realizes": "member",
        "subtype": "subtype",
    },
    "checker": {
        "check": "check",
        "check_orthogonality": "ortho",
        "subject_reduction_harness": "harness",
    },
    "unitary": {"extract_matrix": "extract", "check_unitary": "gram"},
    "corpus": {
        "run_corpus": "run",
        "_eval_rows": "eval",
        "_goal_rows": "type",
        "_unitary_rows": "unitary",
        "_harness_rows": "harness",
        "_subtype_rows": "subtype",
    },
}
LAYERS = tuple(TARGETS) + ("bench",)
PASS_SPAN = "bench.pass"  # the benchmark's span around a traced pass
HOT = {"core", "subst", "syntax.print"}

# Tracing is complete when spans of the layers cover the traced pass up
# to this share; the rest is the benchmark's own loop.
UNATTRIBUTED_TOLERANCE = 0.02


def structure_key(obj, memo: dict):
    """Hashable structural key of a term, to count distinct inputs."""
    k = memo.get(id(obj))
    if k is not None:
        return k
    if dataclasses.is_dataclass(obj):
        k = (type(obj).__name__,) + tuple(
            structure_key(getattr(obj, f.name), memo)
            for f in dataclasses.fields(obj)
        )
    elif isinstance(obj, tuple):
        k = tuple(structure_key(x, memo) for x in obj)
    elif isinstance(obj, complex):
        k = (obj.real, obj.imag)
    else:
        k = obj
    memo[id(obj)] = k
    return k


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # frames: [id of the recorded span that parents new spans, child time]
        self.stack: list[list] = [[0, 0.0]]
        self.spans: list[tuple] = []  # (id, name, parent, item, start, end, self)
        self.hot: dict[tuple, list] = {}  # (parent, name) -> [calls, time, self]
        self.item = -1
        self.next_id = 0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception class)
        self.eval_inputs: list = []
        self.derivations: list = []
        self.missing: list[str] = []  # targets the package no longer has
        self._last_error = None
        self._patched: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def wrap(self, name, fn, post=None):
        hot = name in HOT or name.split(".")[0] in HOT
        stack, clock, spans, agg = self.stack, self.clock, self.spans, self.hot

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [parent[0], 0.0]
            else:
                self.next_id += 1
                frame = [self.next_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                own = dur - frame[1]
                if hot:
                    entry = agg.get((parent[0], name))
                    if entry is None:
                        agg[parent[0], name] = [1, dur, own]
                    else:
                        entry[0] += 1
                        entry[1] += dur
                        entry[2] += own
                else:
                    spans.append(
                        (frame[0], name, parent[0], self.item, t0, t1, own)
                    )
            if post is not None:
                post(args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Run fn inside a recorded span of the benchmark itself."""
        return self.wrap(name, fn)(*args)

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target under each basislam module name bound to it."""
        posts = {
            "syntax.tokenize": self._count_tokens,
            "basis.decompose": self._count_decompose,
            "reduction.evaluate": self._record_evaluate,
            "checker.check": lambda a, r: self.derivations.append(r),
            "checker.harness": self._count_harness,
            "unitary.extract": self._count_columns,
        }
        wrappers = {}
        for layer, funcs in TARGETS.items():
            mod = importlib.import_module(f"basislam.{layer}")
            for fname, group in funcs.items():
                orig = getattr(mod, fname, None)
                if orig is None:  # renamed or removed: its metrics read 0
                    self.missing.append(f"{layer}.{fname}")
                    continue
                name = f"{layer}.{group}"
                wrappers[id(orig)] = (orig, self.wrap(name, orig, posts.get(name)))
        build = getattr(sys.modules["basislam.core"], "_build", None)
        if build is None:
            self.missing.append("core._build")
        else:
            wrappers[id(build)] = (build, self._wrap_build(build))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "basislam" or mname.startswith("basislam.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- counters at layer boundaries -------------------------------------

    def _wrap_build(self, build):
        counts = self.counts

        def counted(pairs):
            pairs = list(pairs)
            out = build(pairs)
            counts["core.entries_in"] += len(pairs)
            counts["core.entries_out"] += len(out)
            if len(out) > counts["core.max_entries"]:
                counts["core.max_entries"] = len(out)
            return out

        return counted

    def _count_tokens(self, args, result):
        self.counts["syntax.tokens"] += len(result)

    def _count_decompose(self, args, result):
        self.counts["basis.decompose_none"] += result is None

    def _count_harness(self, args, result):
        self.counts["checker.harness_steps"] += len(result.steps)

    def _count_columns(self, args, result):
        self.counts["unitary.columns"] += result[0].shape[1]

    def _record_evaluate(self, args, result):
        self.eval_inputs.append(args[0])
        reason = getattr(result.final, "reason", None)
        if reason is not None:
            if reason.startswith("fuel exhausted"):
                self.counts["reduction.fuel_exhausted"] += 1
            else:
                self.counts["reduction.stuck"] += 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as name -> (value, unit)."""
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        incl: defaultdict = defaultdict(float)
        for _, name, _, _, t0, t1, s in self.spans:
            calls[name] += 1
            own[name] += s
            incl[name] += t1 - t0
        for (_, name), (n, _, s) in self.hot.items():
            calls[name] += n
            own[name] += s
        layer_self: defaultdict = defaultdict(float)
        for name, s in own.items():
            layer_self[name.split(".")[0]] += s
        c = self.counts
        nodes = sem = lit = 0
        for d in self.derivations:
            for node in d.walk():
                nodes += 1
                sem += node.rule == "Sem"
                lit += node.rule == "Lit"
        memo: dict = {}
        distinct = len({structure_key(d, memo) for d in self.eval_inputs})
        n_eval = calls["reduction.evaluate"]
        pass_s = incl[PASS_SPAN]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "syntax.parse_calls": (calls["syntax.parse"], "count"),
            "syntax.parse_s": (
                own["syntax.parse"] + own["syntax.tokenize"] + own["syntax.load"], "s"
            ),
            "syntax.tokens": (c["syntax.tokens"], "count"),
            "syntax.print_calls": (calls["syntax.print"], "count"),
            "syntax.print_s": (own["syntax.print"], "s"),
            "cli.main_s": (own["cli.main"], "s"),
            "core.construct_calls": (calls["core.construct"], "count"),
            "core.construct_s": (own["core.construct"], "s"),
            "core.entries_in": (c["core.entries_in"], "count"),
            "core.entries_out": (c["core.entries_out"], "count"),
            "core.merge_ratio": (
                ratio(c["core.entries_out"], c["core.entries_in"]), "ratio"
            ),
            "core.term_eq_calls": (calls["core.term_eq"], "count"),
            "core.term_eq_s": (own["core.term_eq"], "s"),
            "core.inner_product_calls": (calls["core.inner_product"], "count"),
            "core.inner_product_s": (own["core.inner_product"], "s"),
            "core.max_entries": (c["core.max_entries"], "count"),
            "basis.decompose_calls": (calls["basis.decompose"], "count"),
            "basis.decompose_s": (own["basis.decompose"], "s"),
            "basis.decompose_none": (c["basis.decompose_none"], "count"),
            "subst.calls": (calls["subst.subst"], "count"),
            "subst.s": (own["subst.subst"], "s"),
            "subst.undefined": (
                self.errors["subst.subst", "SubstUndefined"], "count"
            ),
            "reduction.evaluate_calls": (n_eval, "count"),
            "reduction.evaluate_distinct": (distinct, "count"),
            "reduction.evaluate_reuse": (1 - ratio(distinct, n_eval), "ratio"),
            "reduction.steps": (calls["reduction.step"], "count"),
            "reduction.step_s": (own["reduction.step"], "s"),
            "reduction.stuck": (c["reduction.stuck"], "count"),
            "reduction.fuel_exhausted": (c["reduction.fuel_exhausted"], "count"),
            "typesem.member_calls": (calls["typesem.member"], "count"),
            "typesem.member_s": (own["typesem.member"], "s"),
            "typesem.subtype_calls": (calls["typesem.subtype"], "count"),
            "checker.check_calls": (calls["checker.check"], "count"),
            "checker.check_s": (own["checker.check"], "s"),
            "checker.check_errors": (
                self.errors["checker.check", "CheckError"], "count"
            ),
            "checker.derivation_nodes": (nodes, "count"),
            "checker.sem_nodes": (sem, "count"),
            "checker.lit_nodes": (lit, "count"),
            "checker.ortho_calls": (calls["checker.ortho"], "count"),
            "checker.ortho_s": (own["checker.ortho"], "s"),
            "checker.harness_s": (own["checker.harness"], "s"),
            "checker.harness_steps": (c["checker.harness_steps"], "count"),
            "unitary.extract_calls": (calls["unitary.extract"], "count"),
            "unitary.extract_s": (own["unitary.extract"], "s"),
            "unitary.gram_s": (own["unitary.gram"], "s"),
            "unitary.columns": (c["unitary.columns"], "count"),
            "corpus.eval_s": (incl["corpus.eval"], "s"),
            "corpus.type_s": (incl["corpus.type"], "s"),
            "corpus.unitary_s": (incl["corpus.unitary"], "s"),
            "corpus.harness_s": (incl["corpus.harness"], "s"),
            "corpus.subtype_s": (incl["corpus.subtype"], "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m["trace.pass_s"] = (pass_s, "s")
        m["trace.unattributed_share"] = (
            ratio(layer_self["bench"], pass_s), "ratio"
        )
        return m

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["id", "name", "parent", "item", "start", "end", "self"],
                    "spans": self.spans,
                    "hot_fields": ["parent", "name", "calls", "time", "self"],
                    "hot": [[p, n, *v] for (p, n), v in self.hot.items()],
                },
                fh,
            )
