"""One benchmark command for solving, serving and the out-of-core tier.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-sweep --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing in the way;
``--trace 1`` is a separate run that wraps each layer's public entry
points and reports the per-layer metrics, writing a Chrome trace and a
layer table under ``.bench_build/perfbench/out``.  ``--self-test`` checks
that the answer checkers reject perturbed answers.  The last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("solve-sweep", "serve-zipf", "stream-scale")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checkers reject perturbed "
                             "answers, then exit")
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    env = common.prepare_environment()

    import selfcheck

    rejected = selfcheck.run()
    if args.self_test:
        for line in rejected:
            print(line)
        print(f"self-test: {len(rejected)} perturbed answers rejected")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    if args.workload == "solve-sweep":
        import solve_sweep

        out, e2e = solve_sweep.run(args.seed, args.seconds, tracer, env)
    elif args.workload == "serve-zipf":
        import serve_zipf

        out, e2e = serve_zipf.run(args.seed, args.seconds, tracer, env)
    else:
        import stream_scale

        out, e2e = stream_scale.run(args.seed, args.seconds, tracer)

    if tracer is None:
        out.emit(spec["end_to_end"], unmeasured_zero=False)
        return 0
    from tracing import print_table

    report = tracer.layer_table(e2e)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_chrome(common.out_path(f"{stem}-trace.json"),
                        min((s[2] for s in tracer.spans), default=0.0))
    common.out_path(f"{stem}-layers.json").write_text(
        json.dumps(report, indent=2))
    print_table(report)
    out.metric("traced.end_to_end_s", e2e)
    out.metric("unattributed_s", report["unattributed_s"])
    out.metric("trace.overhead_s", report["overhead_s"])
    out.emit(spec["per_layer"], unmeasured_zero=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
