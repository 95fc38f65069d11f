"""One repetition: ``roomchan mc`` through its command line, in this interpreter.

Run by ``run.py`` in a fresh interpreter per repetition. Only the standard
library is imported before ``roomchan.cli``, so the time to the first call
into ``run_ensemble`` covers what the ``roomchan`` entry point pays. Times
are ``time.monotonic()`` stamps, which the parent compares with its own
stamp taken just before it started this process. Writes one JSON document
to ``--result``.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _bundle_digest(out_dir: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def _result_bytes(result) -> int:
    """Raw curves plus the per-run records, as held by ``McResult``."""
    total = result.counts_raw.nbytes + result.power_raw.nbytes + sys.getsizeof(result.records)
    for record in result.records:
        total += sys.getsizeof(record) + sys.getsizeof(vars(record))
        total += sum(sys.getsizeof(v) for v in vars(record).values())
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle-runs", type=int, default=0, help="0: no output checks")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import roomchan.cli as cli
    import_s = time.perf_counter() - t0
    from roomchan import montecarlo

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"roomchan imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    out = {"import_s": import_s, "runs": args.runs, "threads": args.threads}
    captured = {}
    inner = montecarlo.run_ensemble

    def timed(cfg, workers=1):
        out["ens_start"] = time.monotonic()
        result = inner(cfg, workers)
        out["ens_end"] = time.monotonic()
        captured["result"] = result
        return result

    montecarlo.run_ensemble = timed
    argv = [
        "--config", args.config, "mc", "--runs", str(args.runs), "--seed", str(args.seed),
        "--out-dir", args.out_dir, "--check", "--threads", str(args.threads),
    ]
    try:
        out["exit_code"] = cli.main(argv)
    except Exception:
        out["exit_code"] = None
        out["error"] = traceback.format_exc()
    out["main_end"] = time.monotonic()
    montecarlo.run_ensemble = inner
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_kb"] = max(own, workers)

    if out["exit_code"] in (0, 1):
        out["bundle_sha256"], out["bundle_bytes"] = _bundle_digest(args.out_dir)
        with open(os.path.join(args.out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        out["report_pass"] = report["pass"]
        out["report_checks"] = report["checks"]
        result = captured["result"]
        if tracer is not None:
            from tracing import self_times

            out["self_s"] = self_times(tracer.spans)
            out["counts"] = tracer.counts
            out["synth_call_s"] = [e - s for n, _, s, e in tracer.spans if n == "channel.synth"]
            out["result_bytes"] = _result_bytes(result)
            spans_path = os.path.splitext(args.result)[0] + ".spans.json"
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": tracer.spans}, fh)
        if args.oracle_runs:
            from checks import run_checks

            out["checks"] = run_checks(result, args.oracle_runs)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
