"""In-memory spans around the calls into each quditcycle layer.

The tracer replaces module attributes of the package with timing wrappers,
so every caller that looks a function up by name (``nmr.pulse_propagator``
inside ``sequence_propagator``, ``smp.minimize`` inside ``smp_optimize``,
``algorithm.classify_cyclic`` inside ``run_quantum`` ...) goes through a
span.  Nothing in the package itself changes.

Every span feeds an aggregate keyed by (name, parent name, label): calls,
total seconds, and self seconds (duration minus the time its child spans
cover).  Coarse spans -- one per benchmark operation, CLI command, protocol
run, synthesis, optimizer restart -- are also kept as individual records with
their parent id and operation index, and written out at the end.  Hot spans
(one per objective evaluation or per library call) are aggregated only, so
memory stays flat however long the run is.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (defining module, attribute, keep individual records?)
SPANS = {
    "nmr.spin_operators": ("nmr", "spin_operators", False),
    "nmr.static_hamiltonian": ("nmr", "static_hamiltonian", False),
    "nmr.pulse_propagator": ("nmr", "pulse_propagator", False),
    "nmr._propagator": ("nmr", "_propagator", False),
    "nmr.sequence_propagator": ("nmr", "sequence_propagator", False),
    "nmr.inject_readout_noise": ("nmr", "inject_readout_noise", True),
    "smp.minimize": ("smp", "minimize", True),
    "smp._decode": ("smp", "_decode", False),
    "smp.gate_fidelity": ("smp", "gate_fidelity", False),
    "smp.smp_optimize": ("smp", "smp_optimize", True),
    "protocol.run_protocol": ("protocol", "run_protocol", True),
    "permutations.parity": ("permutations", "parity", False),
    "permutations.classify_cyclic": ("permutations", "classify_cyclic", False),
    "permutations.enumerate_cyclic": ("permutations", "enumerate_cyclic", False),
    "permutations.oracle_unitary": ("permutations", "oracle_unitary", False),
    "algorithm.qft": ("algorithm", "qft", False),
    "algorithm.run_quantum": ("algorithm", "run_quantum", False),
    "algorithm.run_classical": ("algorithm", "run_classical", False),
    "algorithm.one_query_insufficient": ("algorithm", "one_query_insufficient", True),
    "linalg.outer": ("linalg", "outer", False),
    "linalg.fidelity": ("linalg", "fidelity", False),
    "linalg.basis_state": ("linalg", "basis_state", False),
    "cli.cmd_nmr": ("cli", "cmd_nmr", True),
    "cli.cmd_verify": ("cli", "cmd_verify", True),
}

MODULES = ("linalg", "permutations", "algorithm", "nmr", "smp", "protocol", "cli")
OP = "bench.op"


def _label(name, args, out):
    """Split a span's aggregate by an input or output property."""
    if name == "permutations.classify_cyclic":
        return out.chirality.value if out is not None else "raised"
    if name == "algorithm.one_query_insufficient":
        return f"d{args[0]}"
    if name == "cli.cmd_nmr":
        return "ideal" if args[0].ideal else "synth"
    return None


class Tracer:
    def __init__(self):
        self.active = False
        self.op_index = -1
        self._stack = []  # open frames: [name, child seconds, span id, constructed]
        self._next_id = 0
        self.reset()

    def reset(self):
        """Start empty aggregates and span records."""
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total s, self s, constructed
        self.restarts = []  # per optimizer restart: [nfev, fidelity, capped, min_fidelity]
        self.spans = []  # kept records: (id, parent id, op index, name, t0, t1)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every package attribute that holds a traced function."""
        mods = [sys.modules[f"quditcycle.{m}"] for m in MODULES]
        for name, (home, attr, keep) in SPANS.items():
            original = getattr(sys.modules[f"quditcycle.{home}"], attr)
            wrapper = self._wrap(name, original, keep)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
        perm_cls = sys.modules["quditcycle.permutations"].Permutation
        perm_cls.__post_init__ = self._count_constructions(perm_cls.__post_init__)

    def _wrap(self, name, fn, keep):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, 0.0, self._next_id, 0]
            stack.append(frame)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                self._close(frame, parent, t0, t1, keep, _label(name, args, out))
                if name == "smp.minimize" and out is not None:
                    maxfev = kwargs.get("options", {}).get("maxfev")
                    capped = maxfev is not None and out.nfev >= maxfev
                    self.restarts.append([int(out.nfev), 1.0 - float(out.fun), capped, None])
                elif name == "smp.smp_optimize":
                    cfg = kwargs.get("config") or sys.modules["quditcycle.smp"].OptimizerConfig()
                    for rec in self.restarts:
                        if rec[3] is None:
                            rec[3] = cfg.min_fidelity

        return wrapper

    def _count_constructions(self, fn):
        stack = self._stack

        def post_init(obj):
            if self.active and stack:
                stack[-1][3] += 1
            return fn(obj)

        return post_init

    def _close(self, frame, parent, t0, t1, keep, label):
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        st = self.stats[(frame[0], parent[0] if parent else None, label)]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        st[3] += frame[3]
        if keep:
            self.spans.append((frame[2], parent[2] if parent else None, self.op_index, frame[0], t0, t1))

    # -- operations ---------------------------------------------------------

    def run_op(self, index, fn, *args):
        """Call fn(*args) as the root span of operation `index`."""
        self.op_index = index
        self._next_id += 1
        frame = [OP, 0.0, self._next_id, 0]
        self._stack.append(frame)
        self.active = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.active = False
            self._stack.pop()
            self._close(frame, None, t0, t1, True, None)

    # -- queries ------------------------------------------------------------

    def _sum(self, field, name, parent=None, label=None):
        return sum(
            st[field]
            for (n, p, lab), st in self.stats.items()
            if n == name and (parent is None or p == parent) and (label is None or lab == label)
        )

    def calls(self, name, parent=None, label=None):
        return self._sum(0, name, parent, label)

    def total(self, name, parent=None, label=None):
        return self._sum(1, name, parent, label)

    def self_time(self, name, parent=None, label=None):
        return self._sum(2, name, parent, label)

    def constructed(self, name):
        return self._sum(3, name)

    def counts(self):
        """Call and construction counts per (name, parent, label): deterministic for fixed inputs."""
        return {"|".join(map(str, k)): (st[0], st[3]) for k, st in sorted(self.stats.items(), key=str)}

    def dump(self, path):
        """Write the kept spans and the aggregates as JSON."""
        doc = {
            "span_fields": ["id", "parent", "op", "name", "t0", "t1"],
            "spans": self.spans,
            "aggregates": [
                {"name": n, "parent": p, "label": lab, "calls": st[0], "total_s": st[1], "self_s": st[2], "constructed": st[3]}
                for (n, p, lab), st in sorted(self.stats.items(), key=str)
            ],
            "restarts": [dict(zip(("nfev", "fidelity", "capped", "min_fidelity"), r)) for r in self.restarts],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run; 0 where a workload never enters the layer."""
    evals = tr.calls("nmr.sequence_propagator", parent="smp.minimize")
    eval_s = sum(
        tr.total(n, parent="smp.minimize")
        for n in ("smp._decode", "nmr.sequence_propagator", "smp.gate_fidelity")
    )
    restart_s = tr.total("smp.minimize")
    nfev = sum(r[0] for r in tr.restarts)
    useful = sum(r[0] for r in tr.restarts if r[3] is not None and r[1] >= r[3])
    classify = tr.calls("permutations.classify_cyclic")
    cmd_nmr_s = tr.total("cli.cmd_nmr")
    inside_nmr = sum(
        tr.total(n, parent="cli.cmd_nmr") for n in ("protocol.run_protocol", "nmr.inject_readout_noise")
    )
    linalg_s = sum(tr.total(n) for n in ("linalg.outer", "linalg.fidelity", "linalg.basis_state"))

    def mean_us(name, label=None):
        return 1e6 * _ratio(tr.total(name, label=label), tr.calls(name, label=label))

    us, ms, count = "us", "ms", "count"
    m = {
        # pulse-synth: the SMP search and the propagators under it
        "nmr.spin_operators.calls": (tr.calls("nmr.spin_operators"), count),
        "nmr.spin_operators.per_eval": (_ratio(tr.calls("nmr.spin_operators"), evals), "count/eval"),
        "nmr.static_hamiltonian.calls": (tr.calls("nmr.static_hamiltonian"), count),
        "nmr.static_hamiltonian.per_eval": (_ratio(tr.calls("nmr.static_hamiltonian"), evals), "count/eval"),
        "nmr.pulse_propagator.calls": (tr.calls("nmr.pulse_propagator"), count),
        "nmr.pulse_propagator.us": (mean_us("nmr.pulse_propagator"), us),
        "nmr._propagator.us": (mean_us("nmr._propagator"), us),
        "nmr.sequence_propagator.self_us": (
            1e6 * _ratio(tr.self_time("nmr.sequence_propagator"), tr.calls("nmr.sequence_propagator")),
            us,
        ),
        "smp.evals": (evals, count),
        "smp.eval_us": (1e6 * _ratio(eval_s, evals), us),
        "smp.restarts": (tr.calls("smp.minimize"), count),
        "smp.restart_s": (_ratio(restart_s, tr.calls("smp.minimize")), "s"),
        "smp.optimizer_self_share": (_ratio(restart_s - eval_s, restart_s), "ratio"),
        "smp.capped_restart_ratio": (_ratio(sum(1 for r in tr.restarts if r[2]), len(tr.restarts)), "ratio"),
        "smp.useful_eval_ratio": (_ratio(useful, nfev), "ratio"),
        "cli.nmr_synth_s": (
            _ratio(tr.total("cli.cmd_nmr", label="synth"), tr.calls("cli.cmd_nmr", label="synth")),
            "s",
        ),
        # classify-stream: classification and the one-query circuit
        "permutations.classify_cyclic.calls": (classify, count),
        "permutations.classify_cyclic.positive_us": (mean_us("permutations.classify_cyclic", "positive-cyclic"), us),
        "permutations.classify_cyclic.negative_us": (mean_us("permutations.classify_cyclic", "negative-cyclic"), us),
        "permutations.classify_cyclic.not_cyclic_us": (mean_us("permutations.classify_cyclic", "not-cyclic"), us),
        "permutations.parity.us": (mean_us("permutations.parity"), us),
        "permutations.Permutation.constructed": (tr.constructed("permutations.classify_cyclic"), count),
        "permutations.Permutation.per_classification": (
            _ratio(tr.constructed("permutations.classify_cyclic"), classify),
            "count/call",
        ),
        "permutations.oracle_unitary.us": (mean_us("permutations.oracle_unitary"), us),
        "algorithm.qft.us": (mean_us("algorithm.qft"), us),
        "algorithm.run_quantum.calls": (tr.calls("algorithm.run_quantum"), count),
        "algorithm.run_quantum.self_us": (
            1e6 * _ratio(tr.self_time("algorithm.run_quantum"), tr.calls("algorithm.run_quantum")),
            us,
        ),
        "algorithm.run_classical.us": (mean_us("algorithm.run_classical"), us),
        # exact-cli: verify sweep, ideal protocol, noise and export
        "cli.verify_ms": (1e3 * _ratio(tr.total("cli.cmd_verify"), tr.calls("cli.cmd_verify")), ms),
        "cli.nmr_ideal_ms": (
            1e3 * _ratio(tr.total("cli.cmd_nmr", label="ideal"), tr.calls("cli.cmd_nmr", label="ideal")),
            ms,
        ),
        "cli.export_ms": (1e3 * _ratio(cmd_nmr_s - inside_nmr, tr.calls("cli.cmd_nmr")), ms),
        "permutations.enumerate_cyclic.us": (mean_us("permutations.enumerate_cyclic"), us),
        "protocol.run_protocol.self_ms": (
            1e3 * _ratio(tr.self_time("protocol.run_protocol"), tr.calls("protocol.run_protocol")),
            ms,
        ),
        "nmr.inject_readout_noise.us": (mean_us("nmr.inject_readout_noise"), us),
        "linalg.us": (1e6 * _ratio(linalg_s, n_ops), us),
    }
    for d in range(3, 9):
        m[f"algorithm.one_query_insufficient.d{d}_ms"] = (
            1e3
            * _ratio(
                tr.total("algorithm.one_query_insufficient", label=f"d{d}"),
                tr.calls("algorithm.one_query_insufficient", label=f"d{d}"),
            ),
            ms,
        )
    return m
