"""Set-up cost of one workload in a fresh interpreter.

Usage: ``python setup_probe.py <workload> <input> [<output>]`` with the
repository's ``src`` on ``PYTHONPATH``. Times ``import mapscore`` and the
first call of the workload's entry point on the input the benchmark wrote;
reading that input is not timed. Prints ``{"import_s": ..., "first_call_s": ...}``.
"""
import contextlib
import io
import json
import sys
import time


def main() -> int:
    workload, input_path = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    import mapscore

    import_s = time.perf_counter() - start
    import workloads

    if workload == "pair-open":
        payload = json.loads(open(input_path, encoding="utf-8").read())
        pair = (mapscore.Polyline(payload["x"]), mapscore.Polyline(payload["y"]))
        start = time.perf_counter()
        workloads.run_pair(pair)
    elif workload == "cli-eval":
        start = time.perf_counter()
        from mapscore.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(workloads.cli_argv(input_path, sys.argv[3]))
        if code != 0:
            raise SystemExit(f"mapscore eval exited with {code}")
    else:
        scenes = mapscore.load_scenes(input_path)
        start = time.perf_counter()
        workloads.run_scenes(scenes)
    first_call_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_call_s": first_call_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
