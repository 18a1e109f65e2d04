"""One benchmark invocation: ``bellkit <subcommand> ...`` in a fresh process.

Usage: child.py RESULT_JSON TRACE(0|1) -- BELLKIT_ARGV...

Times the import of ``bellkit.cli`` (set-up) and the call to
``bellkit.cli.main(argv)`` separately, optionally with spans recorded
around the public functions (see tracer.py), and writes both to
RESULT_JSON.  Each is timed twice: wall time (``time.perf_counter``) and
the CPU time of the process, all threads summed (``time.process_time``),
which leaves out the time the process waited for a processor.  The exit
code is main's return value.
"""

import sys
import time

t_start, c_start = time.perf_counter(), time.process_time()
import bellkit.cli  # noqa: E402  (the import is what set-up time measures)
t_imported, c_imported = time.perf_counter(), time.process_time()


def _run() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        code = bellkit.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    main_cpu_s = time.process_time() - cpu_start

    import json
    record = {"import_s": t_imported - t_start, "main_s": main_s,
              "import_cpu_s": c_imported - c_start, "main_cpu_s": main_cpu_s,
              "exit": code}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(_run())
