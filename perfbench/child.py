"""One timed repetition: a fresh interpreter that runs `cyclopadic verify`.

    python3 perfbench/child.py SPAWNED MODE [CLI ARGS...]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes, so set-up time runs
from there to the end of ``import cyclopadic.cli``. MODE is ``setup`` (import
only), ``plain`` (run the CLI untraced) or ``traced`` (wrap each layer with
spans, then run the CLI). The CLI's report stream goes to stdout untouched; the
measurements go to stderr as one last line, ``PERFBENCH <json>``. The exit code
is the CLI's.
"""
import sys
import time


def main() -> int:
    spawned, mode, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import cyclopadic
    import cyclopadic.cli as cli
    setup_s = time.monotonic() - spawned

    import json
    import os
    import resource

    default_threads = getattr(cli, "_default_threads", None)
    stats = {
        "setup_s": setup_s,
        "module": os.path.dirname(cyclopadic.__file__),
        "fingerprint": {
            "cli_default_threads": default_threads() if default_threads else None,
            "kernel_backend": getattr(cyclopadic, "KERNEL_BACKEND", None) or "none",
            "cyclopadic_version": getattr(cyclopadic, "__version__", None),
        },
    }
    code = 0
    if mode != "setup":
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            spans.instrument(tracer)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        sys.stdout.flush()
        stats.update(wall_s=wall_s, cpu_util=cpu_s / wall_s,
                     peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            stats["layers"] = spans.layer_metrics(tracer)
    sys.stderr.write("PERFBENCH " + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
