"""One CLI process of a benchmark round.

    python3 bench_child.py REPORT [--setup-only | --trace TRACE] -- CLI-ARGS...

Runs ``outail.cli.main(CLI-ARGS)``, the function the ``outail`` console script
calls, and writes REPORT (JSON): the monotonic time at which the package was
imported, the times around ``main``, its CPU seconds and its exit status.
``--setup-only`` stops after parsing the config and building the families.
``--trace`` wraps the package's functions in spans and writes them to TRACE.
"""

import json
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    report_path = opts[0]
    from outail import cli, verify

    report = {"imported": time.monotonic()}
    if "--setup-only" in opts:
        if cli_args[0] == "run":
            cli.build_density(cli.parse_config(cli_args[1]))
        else:
            verify.default_families()
        report["ready"] = time.monotonic()
        code = 0
    else:
        tracer = None
        if "--trace" in opts:
            import bench_spans

            tracer = bench_spans.Tracer()
            bench_spans.install(tracer)
            run = tracer.wrap("cli.main", cli.main)
        else:
            run = cli.main
        cpu0, start = _cpu(), time.monotonic()
        code = run(cli_args)
        report.update(start=start, end=time.monotonic(), cpu_s=_cpu() - cpu0)
        if tracer is not None:
            tracer.dump(opts[opts.index("--trace") + 1])
    report["exit"] = code
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
