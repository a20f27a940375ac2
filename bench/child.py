"""One workload invocation in a fresh process: `otbec.cli.main(argv)`, timed.

Usage: python3 child.py '{"argv": [...], "setup_mark": "generate_runs", "mode": "run"}'

mode is "run" (plain), "trace" (every layers.TRACED function wrapped) or
"probe" (stop as soon as set-up is over). Set-up ends when the CLI first calls
its work function `setup_mark` (generate_runs for campaigns and audits,
enumerate_protocol for the oracle): by then otbec is imported and the
parameters are snapped and validated. The last stdout line is a JSON object
with the set-up mark, the wall time of main, the peak RSS and, when traced,
the per-layer metrics.
"""

import json
import resource
import sys
import time


class SetupDone(BaseException):
    """Raised by the set-up mark in probe mode; main does not catch it."""


def _mark_setup(cli, name: str, marks: dict, probe: bool) -> None:
    work = getattr(cli, name)

    def first_call(*args, **kwargs):
        marks["setup_done"] = time.perf_counter()
        setattr(cli, name, work)
        if probe:
            raise SetupDone
        return work(*args, **kwargs)

    setattr(cli, name, first_call)


def run(spec: dict) -> dict:
    import importlib

    import numpy
    import scipy

    import otbec
    from otbec import cli

    result = {
        "otbec_file": otbec.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    tracer = None
    if spec["mode"] == "trace":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        modules = {name: importlib.import_module(f"otbec.{name}") for name, _ in layers.TRACED}
        layers.install(tracer, modules)
    marks: dict = {}
    _mark_setup(cli, spec["setup_mark"], marks, spec["mode"] == "probe")
    main = cli.main
    start = time.perf_counter()
    try:
        code = main(spec["argv"])
    except SetupDone:
        code = 0
    result["wall_s"] = time.perf_counter() - start
    result["exit_code"] = code
    result["setup_done"] = marks.get("setup_done")
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.metrics(tracer)
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
