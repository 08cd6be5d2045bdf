"""The three workloads: build inputs, run one pass, check the outputs.

`prepare` builds the inputs before any timing or tracing; `run` times
each item and keeps its raw output; `verify` checks the outputs after the
pass, against the reference.  An item that raises is kept as its
exception and fails verification; the pass goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import reference
import speed
import workloads
from tracer import PASS_SPAN, Tracer


def gates_path(root: str) -> str:
    return os.path.join(root, "src", "basislam", "corpus", "gates.lb")


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


class Corpus:
    def prepare(self, root, programs, items):
        return None

    def run(self, inputs, items, tracer):
        from basislam import corpus

        # A row's time runs from the end of the previous row (or the start
        # of run_corpus, which loads the programs) to its construction.
        ic = speed.ItemClock(calibrate=tracer is None)
        make_row = corpus.CorpusRow

        def timed_row(*args, **kwargs):
            row = make_row(*args, **kwargs)
            ic.end()
            if tracer is not None:
                tracer.item = len(ic.times)
            ic.begin()
            return row

        corpus.CorpusRow = timed_row
        if tracer is not None:
            tracer.item = 0
        try:
            ic.begin()
            try:
                rows = corpus.run_corpus()
            except Exception as exc:  # counted as failed rows below
                rows = exc
        finally:
            corpus.CorpusRow = make_row
        # the sample after the last row was taken by its ic.begin()
        return ic, rows

    def verify(self, items, rows):
        if isinstance(rows, Exception):
            return [False] * len(items), [_failure(rows)]
        got = [(r.section, r.name) for r in rows]
        oks, notes = [], []
        for k in range(max(len(items), len(got))):
            ok = k < len(items) and k < len(got) and got[k] == items[k] and rows[k].ok
            oks.append(ok)
            if not ok:
                notes.append(f"row {k}: {got[k] if k < len(got) else 'missing'}"
                             f" {rows[k].detail if k < len(got) else ''}")
        return oks, notes


class Wide:
    def prepare(self, root, programs, items):
        from basislam.core import Ket, mk_app, mk_pair, single

        gates = programs["gates"].defs
        terms = []
        for wires in items:
            chains = []
            for bit, names in wires:
                d = single(Ket(bit))
                for g in names:
                    d = mk_app(gates[g], d)
                chains.append(d)
            term = chains[-1]
            for d in reversed(chains[:-1]):
                term = mk_pair(d, term)
            terms.append(term)
        return terms

    def run(self, inputs, items, tracer):
        from basislam import reduction

        ic = speed.ItemClock(calibrate=tracer is None)
        outputs = []
        for k, term in enumerate(inputs):
            if tracer is not None:
                tracer.item = k
            ic.begin()
            try:
                trace = reduction.evaluate(term)
            except Exception as exc:
                trace = exc
            ic.end()
            # keep the result, drop the step list outside the timed region
            outputs.append(trace if isinstance(trace, Exception)
                           else (trace.final, trace.fuel_used))
            del trace
        ic.finish()
        return ic, outputs

    def verify(self, items, outputs):
        from basislam.basis import to_vector
        from basislam.reduction import NormalForm

        oks, notes = [], []
        for k, (wires, out) in enumerate(zip(items, outputs)):
            if isinstance(out, Exception):
                oks.append(False)
                notes.append(f"item {k}: {_failure(out)}")
                continue
            final, steps = out
            ok = (
                isinstance(final, NormalForm)
                and reference.check_steps(steps, reference.predicted_steps(wires))
                and reference.check_state(
                    to_vector(final.dist, len(wires)),
                    reference.product_state(wires),
                )
            )
            oks.append(ok)
            if not ok:
                notes.append(f"item {k}: {getattr(final, 'reason', 'wrong result')}, {steps} steps")
        return oks, notes


class Deep:
    def prepare(self, root, programs, items):
        lb = gates_path(root)
        return [
            ["eval", workloads.chain_text(w), "--def", lb, "--json"]
            for w in items
        ]

    def run(self, inputs, items, tracer):
        from basislam import cli

        ic = speed.ItemClock(calibrate=tracer is None)
        outputs = []
        for k, argv in enumerate(inputs):
            if tracer is not None:
                tracer.item = k
            buf = io.StringIO()
            ic.begin()
            try:
                with contextlib.redirect_stdout(buf):
                    out = (cli.main(argv), buf.getvalue())
            except Exception as exc:
                out = exc
            ic.end()
            outputs.append(out)
        ic.finish()
        return ic, outputs

    def verify(self, items, outputs):
        from basislam.basis import to_vector
        from basislam.syntax import parse_term

        oks, notes = [], []
        for k, (wire, out) in enumerate(zip(items, outputs)):
            try:
                if isinstance(out, Exception):
                    raise out
                code, text = out
                payload = json.loads(text)
                vec = to_vector(parse_term(payload["normal_form"]), 1)
                vec = vec * complex(*payload["phase"])
                ok = (
                    code == 0
                    and reference.check_steps(
                        payload["steps"], reference.predicted_steps([wire])
                    )
                    and reference.check_state(vec, reference.wire_state(*wire))
                )
                note = text.strip()[:200]
            except Exception as exc:  # a crash or unreadable output fails the item
                ok, note = False, _failure(exc)
            oks.append(ok)
            if not ok:
                notes.append(f"item {k}: {note}")
        return oks, notes


WORKLOADS = {"corpus": Corpus(), "wide": Wide(), "deep": Deep()}


def run_pass(root, workload, seed, programs, traced):
    w = WORKLOADS[workload]
    items = workloads.items(workload, seed)
    inputs = w.prepare(root, programs, items)
    tracer = None
    if traced:
        tracer = Tracer()
        around = [speed.sample()]
        tracer.install()
        try:
            ic, outputs = tracer.call(PASS_SPAN, w.run, inputs, items, tracer)
        finally:
            tracer.uninstall()
        around.append(speed.sample())
        ic.samples = around
    else:
        ic, outputs = w.run(inputs, items, None)
    oks, notes = w.verify(items, outputs)
    result = {
        "times_s": ic.times,
        "speed_samples_s": ic.samples,
        "attempted": len(oks),
        "ok": sum(oks),
        "notes": notes[:10],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace_{workload}_{seed}.json")
        tracer.dump(path)
        result["trace_file"] = os.path.relpath(path, root)
    return result


