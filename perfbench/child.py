"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py CONFIG OUT_DIR [--trace] [--setup-only]

Times the cold `import starklat` plus `cli.load_config` (setup), then
`cli.run` from the loaded config to the written manifest (wall). Prints one
JSON object as the last line of standard output. With --trace, the public
functions of every starklat module are wrapped first and the spans and
computed counts are added to the result.
"""

import ctypes
import json
import os
import resource
import sys
import time


def blas_threads() -> dict:
    """Thread count of each OpenBLAS the process has loaded, by library file."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def output_bytes(out_dir: str) -> int:
    # the manifest holds the run's own timings, so its length varies by run
    return sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir)
        if f != "manifest.json"
    )


def main(argv) -> int:
    config, out_dir = argv[0], argv[1]
    trace, setup_only = "--trace" in argv, "--setup-only" in argv
    t0 = time.perf_counter()
    import starklat
    from starklat import cli

    cli.load_config(config)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(result))
        return 0
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.install(starklat)
    t1 = time.perf_counter()
    rc = cli.run(config, out_dir)
    wall_s = time.perf_counter() - t1
    result.update(
        rc=rc,
        wall_s=wall_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        blas_threads=blas_threads(),
        output_bytes=output_bytes(out_dir),
    )
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
