"""Per-layer tracing for the catsense benchmark, done from the outside.

The traced run replaces module attributes of the program's layer-boundary
functions with wrappers that record spans.  Calls inside the package resolve
through module globals (`bounds.curve` -> `invert_ntot`, `to_fock` ->
`coherent.norm_squared`, `cli` -> `svgplot.write_line_plot`), so nested
calls land under the right parent.  A span is (name, start, end, parent,
op id); spans stay in flat arrays until the run ends.  A span's self time
is its duration minus its direct children's, so self times of all spans in
one op add up to that op's wall time.

This module imports only the standard library at top level: a traced CLI
child imports it after the program, so it must not move import cost.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

OP_SPAN = "harness.op"
IMPORT_SPAN = "import.startup"  # cold_cli: spawn until `import catsense.cli` returns


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False  # spans are recorded only inside an op
        self.op_id = -1

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def begin(self, name: str) -> int:
        i = self.add(name, 0.0, 0.0, self.stack[-1] if self.stack else -1)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.active = True
        return self.begin(OP_SPAN)

    def finish_op(self, i: int) -> None:
        self.finish(i)
        self.active = False

    def dump(self) -> dict:
        return {"names": self.names, "name": list(self.name), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end), "counts": dict(self.counts)}

    def merge_child(self, data: dict, parent: int) -> None:
        """Append a child process's spans; its root spans hang under `parent`."""
        base = len(self.start)
        for nid, par, s, e in zip(data["name"], data["parent"], data["start"], data["end"]):
            self.add(data["names"][nid], s, e, parent if par < 0 else base + par)
        for key, value in data["counts"].items():
            self.counts[key] += value


# ---------------------------------------------------------------- counters

def _file_bytes(key):
    def count(rec, args, kwargs, result):
        rec.counts[key] += os.path.getsize(args[0] if args else kwargs["path"])
    return count


def _pairs(per_call: int):
    # Sigma T^2 label pairs per moment evaluation (computed from the term count)
    def count(rec, args, kwargs, result):
        rec.counts["coherent.pair_evals"] += per_call * len(args[0]) ** 2
    return count


def _state_bytes(rec, args, kwargs, result):
    rec.counts["fock.state_bytes"] += 16 * result.dim ** result.mode_count


def _generator_nnz(rec, args, kwargs, result):
    # X = a + a* has 2 (dim - 1) entries; each of `modes` lifts repeats it dim^(modes-1) times
    dim, modes = args
    rec.counts["fock.generator_nnz"] += modes * 2 * (dim - 1) * dim ** (modes - 1)


# (module, attribute path, counter).  Layer-boundary functions plus the
# named inner ones; per-pair helpers such as `overlap` stay unwrapped to
# keep the span count and the tracing overhead bounded.
PATCHES = (
    ("cli", "main", None),
    ("cli", "write_csv", _file_bytes("cli.write_csv.bytes")),
    ("svgplot", "write_line_plot", _file_bytes("svgplot.write_line_plot.bytes")),
    ("bounds", "invert_ntot", None),
    ("bounds", "curve", None),
    ("bounds", "eps_min_entangled_cat", None),
    ("bounds", "eps_min_separable_cats", None),
    ("bounds", "eps_min_single_cat", None),
    ("coherent", "CoherentLabel.__init__", None),
    ("coherent", "SuperpositionState.__init__", None),
    ("coherent", "make_entangled_cat", None),
    ("coherent", "displace", None),
    ("coherent", "expect_generator", _pairs(1)),
    ("coherent", "variance_generator", _pairs(2)),
    ("coherent", "mean_photon_number", _pairs(1)),
    ("coherent", "norm_squared", _pairs(1)),
    ("fock", "to_fock", _state_bytes),
    ("fock", "collective_quad_x", _generator_nnz),
    ("fock", "qfi_pure", None),
    ("fock", "qfi_fidelity_fd", None),
    ("fock", "displace_fock", None),
    ("fock", "squeezed_vector", None),
    ("fock", "quad_x", None),
    ("fock", "quad_y", None),
    ("fock", "number_operator", None),
    ("fock", "variance", None),
    ("fock", "expectation", None),
    ("estimation", "ramsey_fisher", None),
    ("estimation", "ramsey_simulate", None),
    ("estimation", "sample_homodyne", None),
    ("estimation", "estimate_eps", None),
)


def _wrap(rec: Recorder, name: str, fn, count):
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        i = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder, modules: dict):
    """Wrap every PATCHES entry found in `modules`; returns the undo function."""
    undo = []
    for mod_name, attr, count in PATCHES:
        owner = modules[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue  # the program no longer has this function
        span = f"{mod_name}.{attr.removesuffix('.__init__')}"
        setattr(owner, leaf, _wrap(rec, span, original, count))
        undo.append((owner, leaf, original))

    def restore() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return restore


def program_modules() -> dict:
    import catsense.cli as cli
    from catsense import bounds, coherent, estimation, fock, svgplot

    return {"cli": cli, "bounds": bounds, "coherent": coherent, "fock": fock,
            "svgplot": svgplot, "estimation": estimation}


# ---------------------------------------------------------------- cold_cli children

_CHILD = (
    "import sys, time\n"
    "import catsense.cli\n"
    "ready = time.perf_counter()\n"
    "sys.path.insert(0, {bench!r})\n"
    "import tracing\n"
    "sys.exit(tracing.child_main(sys.argv[1], ready, sys.argv[2:]))\n"
)


def child_main(dump_path: str, ready: float, argv: list[str]) -> int:
    """Body of a traced CLI subprocess: run the CLI with spans on, dump them as JSON."""
    import catsense.cli

    rec = Recorder()
    rec.active = True
    install(rec, program_modules())
    try:
        return catsense.cli.main(argv)
    finally:
        data = rec.dump()
        data["ready"] = ready
        Path(dump_path).write_text(json.dumps(data))


def run_traced_child(rec: Recorder, argv: list[str], cwd: Path, env: dict):
    """Run `python -m catsense.cli ...` argv as a traced child, merging its spans."""
    python, dash_m, module, *cli_args = argv
    if (dash_m, module) != ("-m", "catsense.cli"):
        raise ValueError(f"not a catsense CLI command line: {argv}")
    dump = cwd / "child-spans.json"
    dump.unlink(missing_ok=True)
    code = _CHILD.format(bench=str(Path(__file__).resolve().parent))
    root = rec.stack[-1]
    result = subprocess.run([python, "-c", code, str(dump), *cli_args], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    if dump.is_file():
        data = json.loads(dump.read_text())
        rec.add(IMPORT_SPAN, rec.start[root], data["ready"], root)
        rec.merge_child(data, root)
    return result


# ---------------------------------------------------------------- import times

IMPORT_METRICS = {
    "import.catsense_cli_s": "catsense.cli",
    "import.catsense_fock_s": "catsense.fock",
    "import.scipy_sparse_s": "scipy.sparse",
    "import.numpy_s": "numpy",
    "import.click_s": "click",
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum_us, name = line.split("|")
        cumulative.setdefault(name.strip(), int(cum_us) / 1e6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_METRICS.items()}


def import_times(python: str, cwd: Path, env: dict, repeats: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of the cumulative import time of each module."""
    runs = []
    for _ in range(repeats):
        r = subprocess.run([python, "-X", "importtime", "-c", "import catsense.cli"], cwd=cwd,
                           env=env, capture_output=True, text=True, timeout=120)
        runs.append(parse_importtime(r.stderr))
    return {k: statistics.median(run[k] for run in runs) for k in IMPORT_METRICS}


# ---------------------------------------------------------------- reduction

def summarize(rec: Recorder) -> dict[str, float]:
    """Per span name and per layer: self seconds and call counts, plus counters."""
    import numpy as np

    name = np.frombuffer(rec.name, dtype=np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_s = np.bincount(name, weights=dur - covered, minlength=len(rec.names))
    calls = np.bincount(name, minlength=len(rec.names))
    out: dict[str, float] = defaultdict(float)
    for nid, span in enumerate(rec.names):
        layer = span.split(".", 1)[0]
        out[f"{span}.self_s"] += float(self_s[nid])
        out[f"{span}.calls"] += int(calls[nid])
        out[f"{layer}.self_s"] += float(self_s[nid])
    op_nid = rec._ids.get(OP_SPAN)
    out["trace.op_wall_s"] = float(np.sum(dur[name == op_nid])) if op_nid is not None else 0.0
    out["trace.spans"] = len(dur)
    out.update(rec.counts)
    return out


def save(rec: Recorder, path: Path) -> None:
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(rec.names), name=np.frombuffer(rec.name, dtype=np.int64),
             parent=np.frombuffer(rec.parent, dtype=np.int64),
             op=np.frombuffer(rec.op, dtype=np.int64), start=np.frombuffer(rec.start),
             end=np.frombuffer(rec.end))
