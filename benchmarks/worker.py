"""One workload process of the covsel benchmark (started by ``perf.py``).

``worker.py setup <workload>`` times a fresh interpreter importing covsel
and building the workload's candidate library, and prints the seconds.

``worker.py run <spec.json>`` runs the workload in a closed loop: one
caller, the next ``covsel.cli.main`` call starting when the previous one
returns.  A warm-up operation comes first and is timed separately.  With
tracing on, untraced and traced operations alternate, so the same process
gives the tracing overhead.  The result is written to ``spec["result"]``.
"""

from __future__ import annotations

import gzip
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _median(values: list):
    """The median, kept an exact element when the values are counts."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def setup(name: str) -> None:
    start = time.perf_counter()
    import covsel  # noqa: F401
    from workloads import WORKLOADS, build_library

    build_library(WORKLOADS[name])
    print(repr(time.perf_counter() - start))


def run(spec: dict) -> None:
    import covsel.cli
    import tracing
    from workloads import WORKLOADS, CheckFailed, compare

    # Keep per-operation INFO lines off stderr; cli.main configures logging only when unset.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    out = Path(spec["out"])
    argv = spec["argv"] + ["--out", str(out)]
    reference = spec["reference"]
    tracer = tracing.Tracer() if spec["trace"] else None
    ops: list[dict] = []
    layer: list[dict] = []
    spans: list[list] = []
    first_fingerprint = None

    def operation(kind: str) -> None:
        nonlocal first_fingerprint
        shutil.rmtree(out, ignore_errors=True)
        traced = kind == "traced"
        if traced:
            tracer.reset()
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            code = covsel.cli.main(argv)
            if code != 0:
                error = f"exit code {code}"
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            layer.append(tracing.layer_metrics(tracer.spans))
            spans.append([[len(ops), i, *span] for i, span in enumerate(tracer.spans)])
        if error is None:
            try:
                fingerprint = workload.check(out, seed)
                if first_fingerprint is None:
                    first_fingerprint = fingerprint
                elif fingerprint != first_fingerprint:
                    raise CheckFailed("output differs from the first operation of this run")
                if reference is not None:
                    compare(fingerprint, reference["fingerprint"], reference["rtol"], workload.name)
            except Exception as exc:  # any error while checking fails the operation
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            print(f"{workload.name} operation {len(ops)} ({kind}) failed: {error}", file=sys.stderr)
        ops.append({"kind": kind, "wall_s": wall, "ok": error is None, "error": error})

    operation("warmup")
    start = time.perf_counter()
    kinds = ("untraced", "traced") if tracer else ("untraced",)
    while True:
        operation(kinds[(len(ops) - 1) % len(kinds)])
        done = {op["kind"] for op in ops}
        if time.perf_counter() - start >= spec["seconds"] and done.issuperset(kinds):
            break
    shutil.rmtree(out, ignore_errors=True)

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": first_fingerprint,
    }
    if tracer:
        result["layer"] = {key: _median([m[key] for m in layer]) for key in layer[0]}
        with gzip.open(spec["trace_file"], "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(["op", "id", *tracing.Span._fields]) + "\n")
            for op_spans in spans:
                for span in op_spans:
                    handle.write(json.dumps(span) + "\n")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        run(json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")))
