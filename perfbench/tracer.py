"""Spans around the package's public functions, patched in from outside.

A :class:`Tracer` replaces each target function with a wrapper in every
``robustggm`` module namespace that binds it (``gamma_mm.log_density``
as well as ``objective.log_density``), so calls made through imported
names are seen too.  Each call records a span (name, phase, round,
start, end, parent span) in memory; a function's self time is its span
minus the spans of the wrapped calls it made.  A target that no longer
exists is reported as not measured.

Every ``glasso.solve`` return is audited against the optimality
conditions of the problem it was handed (``checks.glasso_kkt``).  The
audit's time is kept out of every span's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import checks

# (module, function) pairs that get a span.  _lasso_cd is private and
# runs inside glasso.solve's self time.
TARGETS = [
    ("cli", "main"),
    ("glasso", "solve"), ("glasso", "kkt_residual"), ("glasso", "glasso_objective"),
    ("matcore", "inv_spd"), ("matcore", "spd_factorize"),
    ("gamma_mm", "solution_path"), ("gamma_mm", "fit"), ("gamma_mm", "mm_step"),
    ("gamma_mm", "compute_weights"), ("gamma_mm", "weighted_scatter"), ("gamma_mm", "diagonal_start"),
    ("objective", "log_density"), ("objective", "penalized_gamma_objective"),
    ("baselines", "fit_tlasso"), ("baselines", "tlasso_diagonal_start"),
    ("baselines", "npn_transform"), ("baselines", "fit_nonparanormal"),
    ("fileio", "read_csv"), ("fileio", "write_json"), ("fileio", "write_csv"), ("fileio", "write_tsv"),
    ("simgen", "generate"),
    ("metrics", "edge_set"), ("metrics", "mse_offdiag"), ("metrics", "normalize"),
]
PACKAGE = "robustggm"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id or -1, name, phase, round, start, end)
        self.self_s: dict[tuple[str, str], float] = {}  # (phase, name) -> seconds
        self.calls: dict[tuple[str, str], int] = {}
        self.counts: dict[tuple[str, str], float] = {}  # (phase, counter) -> value
        self.unmeasured: set[str] = set()
        self.audit_worst = 0.0
        self.audit_s = 0.0
        self.phase = "setup"
        self.round = -1
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._post = {
            "glasso.solve": self._after_solve,
            "baselines.fit_tlasso": self._after_tlasso,
            "fileio.write_json": self._after_write,
            "fileio.write_csv": self._after_write,
            "fileio.write_tsv": self._after_write,
        }

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if not callable(orig):
                self.unmeasured.add(name)
                continue
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        post = self._post.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans), clock(), 0.0]
            self.spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                key = (self.phase, name)
                self.self_s[key] = self.self_s.get(key, 0.0) + dur - frame[2]
                self.calls[key] = self.calls.get(key, 0) + 1
                if parent is not None:
                    parent[2] += dur
                self.spans[frame[0]] = (frame[0], parent[0] if parent else -1, name,
                                        self.phase, self.round, frame[1], end)
            if post is not None:
                t = clock()
                post(args, kwargs, result)
                spent = clock() - t
                if parent is not None:
                    parent[2] += spent
                if name == "glasso.solve":
                    self.audit_s += spent
            return result

        return wrapper

    # --- counters ----------------------------------------------------------

    def _add(self, counter: str, value: float) -> None:
        key = (self.phase, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def _after_solve(self, args, kwargs, sol) -> None:
        sweeps = getattr(sol, "iterations", None)
        if sweeps is None:
            self.unmeasured.add("glasso.sweeps")
        else:
            self._add("glasso.sweeps", int(sweeps))
        problem = args[0] if args else kwargs.get("p")
        res = checks.glasso_kkt(problem.s, problem.lam, getattr(problem, "logdet_scale", 1.0), sol.omega)
        self.audit_worst = max(self.audit_worst, res)
        self._add("kkt_audit.solves", 1)
        if not res < checks.KKT_TOL:
            self._add("kkt_audit.failures", 1)

    def _after_tlasso(self, args, kwargs, res) -> None:
        steps = getattr(res, "mm_iterations", None)
        if steps is None:
            self.unmeasured.add("baselines.em_steps")
        else:
            self._add("baselines.em_steps", int(steps))

    def _after_write(self, args, kwargs, _) -> None:
        path = args[0] if args else kwargs.get("path")
        self._add("fileio.bytes_written", os.path.getsize(path))

    # --- results -----------------------------------------------------------

    def get_self(self, phase: str, name: str) -> float | None:
        return None if name in self.unmeasured else self.self_s.get((phase, name), 0.0)

    def get_calls(self, phase: str, name: str) -> int | None:
        return None if name in self.unmeasured else self.calls.get((phase, name), 0)

    def get_count(self, phase: str, counter: str) -> float | None:
        return None if counter in self.unmeasured else self.counts.get((phase, counter), 0)


def layer_metrics(tr: Tracer, traced_rounds: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of the timed body, per traced round, plus the
    set-up phase's writes; ``None`` marks a metric not measured."""
    per = 1.0 / traced_rounds

    def scaled(v):
        return None if v is None else v * per

    out = {}
    for mod_name, fn_name in TARGETS:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.self_s"] = (scaled(tr.get_self("body", name)), "s")
        out[f"{name}.calls"] = (scaled(tr.get_calls("body", name)), "count")
    solves = tr.get_calls("body", "glasso.solve")
    sweeps = tr.get_count("body", "glasso.sweeps")
    points = tr.get_calls("body", "gamma_mm.fit")
    steps = tr.get_calls("body", "gamma_mm.mm_step")
    out["glasso.sweeps"] = (scaled(sweeps), "count")
    out["glasso.sweeps_per_solve"] = (sweeps / solves if sweeps is not None and solves else None, "sweeps/solve")
    out["gamma_mm.mm_steps_per_point"] = (steps / points if steps is not None and points else None, "steps/point")
    out["baselines.em_steps"] = (scaled(tr.get_count("body", "baselines.em_steps")), "count")
    out["fileio.bytes_written"] = (scaled(tr.get_count("body", "fileio.bytes_written")), "bytes")
    out["setup.fileio.write_csv.self_s"] = (tr.get_self("setup", "fileio.write_csv"), "s")
    out["setup.simgen.generate.self_s"] = (tr.get_self("setup", "simgen.generate"), "s")
    out["setup.fileio.bytes_written"] = (tr.get_count("setup", "fileio.bytes_written"), "bytes")
    out["kkt_audit.solves"] = (scaled(tr.get_count("body", "kkt_audit.solves")), "count")
    out["kkt_audit.max_residual"] = (tr.audit_worst, "1")
    out["kkt_audit.s"] = (tr.audit_s * per, "s")
    out["trace_overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out
