"""Outside-in tracing of kinwave's public functions.

The recorder wraps functions from the outside: each wrapper opens a span
(name, layer, start, end, parent), calls the original and closes the span.
The package binds names with ``from .lattice import evolve``, so a function
is replaced under every name that binds it in every loaded ``kinwave``
module.  Three wrappers also count work at the boundary:

* ``numpy.fft.rfftn`` / ``irfftn`` are timed while an ``evolve`` span is
  open, which gives FFT pairs and FFT time per box size L;
* ``sample_jump`` receives a forwarding proxy of its Generator that counts
  proposals (``integers`` draws) on their way through;
* ``simulate``, ``disorder_average``, ``dyson_characteristic`` and the
  ``io`` writers read collision counts, dropped realizations, the Dyson tail
  bound and bytes written from their return values.

Every wrapper forwards arguments and results unchanged and the proxy calls
the same Generator methods in the same order, so a traced run draws the
same random numbers and writes the same artifacts as an untraced one.
Spans are kept in memory; ``Recorder.to_obj`` serializes them at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

perf_counter = time.perf_counter

# (defining module, function, layer): every public function the workloads
# reach, plus the harness entry points that give spans their parents
TRACED = (
    ("dispersion", "build_dispersion", "dispersion"),
    ("dispersion", "find_critical_points", "dispersion"),
    ("dispersion", "decay_exponent", "dispersion"),
    ("lattice", "evolve", "lattice"),
    ("lattice", "evolve_free_spectral", "lattice"),
    ("lattice", "to_wavefunction", "lattice"),
    ("lattice", "from_wavefunction", "lattice"),
    ("lattice", "energy", "lattice"),
    ("lattice", "sample_disorder", "lattice"),
    ("lattice", "wkb_state", "initial"),
    ("wigner", "initial_wavefunction", "initial"),
    ("wigner", "disorder_average", "wigner"),
    ("wigner", "f_transform", "wigner"),
    ("wigner", "energy_density_pairing", "wigner"),
    ("kinetic", "build_collision_table", "kinetic"),
    ("kinetic", "sample_initial", "kinetic"),
    ("kinetic", "simulate", "kinetic"),
    ("kinetic", "sample_jump", "kinetic"),
    ("kinetic", "characteristic_function", "kinetic"),
    ("kinetic", "dyson_characteristic", "kinetic"),
    ("kinetic", "theta_plus", "kinetic"),
    ("kinetic", "k_simplex", "kinetic"),
    ("moments", "verify_moment_mc", "moments"),
    ("moments", "enumerate_partitions", "moments"),
    ("moments", "cumulants_of", "moments"),
    ("io", "write_json", "io"),
    ("io", "write_csv", "io"),
    ("io", "write_estimates_csv", "io"),
    ("io", "write_diagnostics_csv", "io"),
    ("io", "save_collision_table", "io"),
    ("io", "load_collision_table", "io"),
    ("io", "read_json", "io"),
    ("harness", "run_convergence", "harness"),
    ("harness", "energy_transport_check", "harness"),
    ("harness", "substitution_gap_exact", "harness"),
    ("harness", "solver_crosscheck", "harness"),
    ("harness", "free_flight_check", "harness"),
    ("cli", "dispatch", "cli"),
)

# layers whose spans count as work below the orchestration (harness, cli)
WORK_LAYERS = frozenset(
    {"dispersion", "lattice", "initial", "wigner", "kinetic", "moments", "io"}
)

# artifact writers; files and bytes are counted once per outermost call
WRITERS = frozenset(
    {"io.write_json", "io.write_csv", "io.write_estimates_csv",
     "io.write_diagnostics_csv", "io.save_collision_table"}
)


class CountingGenerator:
    """Forwards every call to a numpy Generator; counts ``integers`` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.proposals = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.proposals += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Recorder:
    """Spans and counts of one traced section, kept in memory."""

    def __init__(self):
        # span rows: [name, layer, start, end, parent index or -1, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # (fft seconds key, fft pairs key) of the open evolve call, if any
        self._fft_keys: tuple[str, str] | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), None, parent, attrs or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        idx = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function under all of its names, and numpy.fft."""
        import kinwave.cli  # noqa: F401  (loads every kinwave module)

        for mod_name, fname, layer in TRACED:
            orig = getattr(sys.modules[f"kinwave.{mod_name}"], fname)
            wrapper = self._wrap(orig, f"{mod_name}.{fname}", layer)
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("kinwave"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, attr, orig))
                        setattr(module, attr, wrapper)
        for fname in ("rfftn", "irfftn"):
            orig = getattr(np.fft, fname)
            self._restore.append((np.fft, fname, orig))
            setattr(np.fft, fname, self._wrap_fft(orig, fname))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _wrap_fft(self, orig, fname):
        rec = self

        counts = self.counts
        pair = 1 if fname == "rfftn" else 0

        def traced_fft(*args, **kwargs):
            keys = rec._fft_keys
            if keys is None:
                return orig(*args, **kwargs)
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            counts[keys[0]] += perf_counter() - t0
            counts[keys[1]] += pair
            return out

        return traced_fft

    def _wrap(self, orig, span_name, layer):
        rec = self

        if span_name == "lattice.evolve":
            def traced(state, disorder, eps, c, t_final, dt=None):
                outer = rec._fft_keys
                pairs = f"fft_pairs.L{state.L}"
                rec._fft_keys = (f"fft_s.L{state.L}", pairs)
                before = rec.counts[pairs]
                attrs = {"L": state.L, "eps": eps, "t_final": t_final}
                idx = rec.open(span_name, layer, attrs)
                try:
                    return orig(state, disorder, eps, c, t_final, dt)
                finally:
                    rec.close(idx)
                    rec._fft_keys = outer
                    attrs["fft_pairs"] = rec.counts[pairs] - before
            return traced

        if span_name == "kinetic.sample_jump":
            def traced(table, k_idx, rng):
                proxy = CountingGenerator(rng)
                idx = rec.open(span_name, layer)
                try:
                    out = orig(table, k_idx, proxy)
                finally:
                    rec.close(idx)
                    rec.counts["jump_proposals"] += proxy.proposals
                rec.counts["jump_draws"] += int(np.size(k_idx))
                return out
            return traced

        def traced(*args, **kwargs):
            idx = rec.open(span_name, layer)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec.close(idx)
            rec._observe(span_name, args, out, idx)
            return out

        return traced

    def _observe(self, name, args, out, idx) -> None:
        """Counts read from arguments and results at the boundary."""
        if name == "kinetic.simulate":
            ens, counts = out
            self.spans[idx][5] = {"particles": int(ens.n),
                                  "collisions": int(counts.sum())}
            self.counts["collisions"] += int(counts.sum())
            self.counts["simulated_particles"] += int(ens.n)
        elif name == "kinetic.sample_initial":
            self.spans[idx][5] = {"particles": int(args[1])}
            self.counts["initial_particles"] += int(args[1])
        elif name == "wigner.disorder_average":
            cfg = args[0]
            self.spans[idx][5] = {"eps": cfg.eps, "L": cfg.L,
                                  "convention": cfg.convention,
                                  "realizations": cfg.realizations}
            self.counts["dropped"] += int(out.n_dropped)
        elif name == "kinetic.dyson_characteristic":
            self.counts["dyson_tail_bound"] = max(self.counts["dyson_tail_bound"],
                                                 float(out[1]))
        elif name in WRITERS and not any(self.spans[a][1] == "io"
                                         for a in self.ancestors(idx)):
            self.counts["files_written"] += 1
            self.counts["bytes_written"] += Path(out).stat().st_size

    # -- reduction ---------------------------------------------------------

    def duration(self, idx: int) -> float:
        row = self.spans[idx]
        return row[3] - row[2]

    def ancestors(self, idx: int):
        parent = self.spans[idx][4]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][4]

    def outermost(self, pred) -> list[int]:
        """Spans matching pred with no ancestor matching pred."""
        return [i for i, row in enumerate(self.spans)
                if pred(row) and not any(pred(self.spans[a]) for a in self.ancestors(i))]

    def total(self, name: str) -> float:
        """Wall time inside calls of one function, nested calls counted once."""
        return sum(self.duration(i)
                   for i in self.outermost(lambda r: r[0] == name))

    def calls(self, name: str) -> int:
        return sum(1 for r in self.spans if r[0] == name)

    def self_time(self, pred) -> float:
        """Sum over matching spans of duration minus their direct children."""
        child_sum: dict[int, float] = defaultdict(float)
        for i, row in enumerate(self.spans):
            if row[4] >= 0:
                child_sum[row[4]] += self.duration(i)
        return sum(self.duration(i) - child_sum[i]
                   for i, row in enumerate(self.spans) if pred(row))

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Time of child_name spans directly under parent_name spans."""
        return sum(self.duration(i) for i, r in enumerate(self.spans)
                   if r[0] == child_name and r[4] >= 0
                   and self.spans[r[4]][0] == parent_name)

    def work_time(self) -> float:
        """Time covered by spans of the work layers (orchestration excluded)."""
        return sum(self.duration(i)
                   for i in self.outermost(lambda r: r[1] in WORK_LAYERS))

    def to_obj(self, t_origin: float) -> dict:
        return {
            "spans": [
                {"name": n, "layer": lay, "start": s - t_origin,
                 "end": e - t_origin, "parent": p, **({"attrs": a} if a else {})}
                for n, lay, s, e, p, a in self.spans
            ],
            "counts": dict(self.counts),
        }
