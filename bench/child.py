"""One ``qcollide`` CLI invocation in a fresh interpreter, timed from inside.

Usage: python child.py REQUEST_JSON RESULT_PATH

REQUEST_JSON holds ``argv`` (the CLI arguments), ``model`` and ``noise`` (the
config path, or null) for the set-up timing, ``trace`` (wrap the layer
functions) and ``env`` (also record the environment). The result is written as
JSON to RESULT_PATH, with the host probe times taken just before and just
after the call. ``qcollide`` must be importable (run.py puts ``src`` on
``PYTHONPATH``).
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import layertrace

MODEL_BUILDERS = {"single": "single_qubit_model", "two-qubit": "two_qubit_model",
                  "toy": "toy_model"}


def _openblas_info():
    """Build string and default thread count of every loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = []
    for path in paths:
        info = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(info)
            continue
        for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
        ):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(info)
    return out


def host_probe(reps: int = 8000) -> float:
    """Wall time of a fixed mix of interpreter work and small complex matrix
    products (about 0.15 s on a 2-core VM): the current speed of the CPU this
    process runs on, taken just before and just after the timed call. It runs
    no qcollide code, so no change to the program moves it."""
    import numpy as np

    m = np.linspace(0.0, 1.0, 256).reshape(16, 16) * (1 + 1j) / 16
    eye = np.eye(16)
    acc = eye.astype(complex)
    total = 0
    t0 = time.perf_counter()
    for i in range(reps):
        acc = acc @ m + eye
        acc = acc / np.abs(acc).max()
        total += sum(j * i for j in range(40))
    return time.perf_counter() - t0


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_info(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def main() -> int:
    req = json.loads(sys.argv[1])
    result_path = Path(sys.argv[2])

    t0 = time.perf_counter()
    import qcollide
    from qcollide import cli, collision, noisytomo

    if req["noise"] is not None:
        noisytomo.NoiseConfig.from_text(Path(req["noise"]).read_text())
    getattr(collision, MODEL_BUILDERS[req["model"]])()
    setup_s = time.perf_counter() - t0

    tracer = absent = None
    if req["trace"]:
        tracer = layertrace.Tracer(run_id=str(os.getpid()))
        absent = tracer.install()

    probe_before = host_probe()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        code = cli.main(req["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    w1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    probe_after = host_probe()

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": w1 - w0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "qcollide_file": qcollide.__file__,
    }
    if tracer is not None:
        self_s, calls, root = layertrace.self_times(tracer.spans, w0, w1)
        result["trace"] = {
            "absent": absent,
            "self_s": self_s,
            "calls": calls,
            "cli_self_s": root,
            "counts": tracer.counts,
            "broken_counters": sorted(tracer.broken_counters),
            "spans": [[name, start - w0, end - w0, parent, run]
                      for name, start, end, parent, run in tracer.spans],
        }
    if req["env"]:
        result["env"] = environment()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
