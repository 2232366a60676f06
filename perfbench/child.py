"""One benchmark operation in its own process: ``mmdrl run`` on a config,
then ``mmdrl zeroshot-eval`` on the estimate that run wrote.

Usage: python3 child.py RESULT_JSON TRACE(0|1) CONFIG RUN_OUT ZEROSHOT_OUT

Both commands go through ``mmdrl.cli.main`` exactly as the console script
does. The child notes the clock when the first engine is entered (the end
of set-up), and with TRACE=1 installs the span tracer first. It writes
RESULT_JSON even when a command raises; the exception then propagates, so
the process ends with the interpreter's traceback and exit code 1.
"""

from __future__ import annotations

import ctypes
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# The entry points through which experiments.run_seed starts an engine.
ENGINE_ENTRIES = (
    "categorical_dp_solve",
    "ewp_random_solve",
    "categorical_td_run",
    "ewp_td_run",
)


def _mark_setup_end(experiments, result: dict) -> None:
    for name in ENGINE_ENTRIES:
        fn = getattr(experiments, name)

        def first_call(*args, _fn=fn, **kwargs):
            if "setup_mark" not in result:
                result["setup_mark"] = time.monotonic()
            return _fn(*args, **kwargs)

        setattr(experiments, name, first_call)


def _blas_facts() -> dict:
    """Thread count and build string of the loaded OpenBLAS, as the user's
    environment left them."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        return {"blas_threads": threads(), "blas_config": config().decode()}
    return {"blas_threads": None, "blas_config": None}


def main(argv) -> int:
    result_path, trace, config, run_out, zs_out = argv
    sys.path.insert(0, str(SRC))
    result = {"import_start": time.monotonic(), "exit_codes": [], "cli_main_s": []}
    tracer = None
    try:
        if trace == "1":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        from mmdrl import cli, experiments

        _mark_setup_end(experiments, result)
        commands = (
            ["run", "--config", config, "--out", run_out],
            ["zeroshot-eval", "--config", config, "--out", zs_out],
        )
        code = 0
        for command in commands:
            start = time.perf_counter()
            code = cli.main(command)
            result["cli_main_s"].append(time.perf_counter() - start)
            result["exit_codes"].append(code)
            if code != 0:
                break
        result.update(_blas_facts())
        return code
    finally:
        if tracer is not None:
            result["spans"] = tracer.snapshot()
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
