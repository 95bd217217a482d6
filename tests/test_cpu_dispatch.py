"""Output bytes do not depend on numpy's CPU dispatch or on OpenBLAS's core type.

numpy picks SIMD kernels for exp, log, power, complex absolute value and
complex products by the CPU it runs on, and those round differently from libm
and from one another; its sin and cos may be vectorised too, and np.dot
follows OpenBLAS's core type. Each command below runs in a fresh interpreter:
as it is, with numpy's AVX-512 kernels switched off (NPY_DISABLE_CPU_FEATURES)
and OpenBLAS held to its Haswell kernels, and with every kernel above numpy's
baseline switched off and OpenBLAS held to Nehalem (SSE only). The written
bytes must be the same. A restriction that switches off nothing numpy found
would rerun the same process and is left out; where none is left, the test
is skipped.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohmatom

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

#: The dispatch targets numpy reports as found on this CPU (np.show_runtime lists them too).
FOUND = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
AVX512_FOUND = [f for f in FOUND if f.startswith("AVX512") or f == "X86_V4"]

_ENV = {**os.environ, "PYTHONPATH": str(Path(bohmatom.__file__).resolve().parents[1])}
RESTRICTED = {
    name: {**_ENV, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "OPENBLAS_CORETYPE": coretype}
    for name, disabled, coretype in (("no-avx512", AVX512_FOUND, "Haswell"), ("baseline", FOUND, "Nehalem"))
    if disabled
}

_GRID = ["--Z", "40", "--r-count", "40", "--theta-count", "3", "--phi-count", "2"]
#: Many distinct angles, so that the cos and sin of theta and phi are exercised too.
_ANGLES = ["--Z", "40", "--r-count", "10", "--theta-count", "9", "--phi-count", "7"]
COMMANDS = {
    "field-dirac": ["field", "--model", "dirac", *_GRID],
    "field-321": ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1", *_GRID, "--format", "json"],
    "field-32-1": ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "-1", *_GRID, "--format", "json"],
    "field-432": ["field", "--model", "schrodinger", "--n", "4", "--l", "3", "--m", "2", *_GRID, "--format", "json"],
    "field-43-2": ["field", "--model", "schrodinger", "--n", "4", "--l", "3", "--m", "-2", *_GRID, "--format", "json"],
    "field-dirac-angles": ["field", "--model", "dirac", "--spin", "down", *_ANGLES],
    "field-533-angles": ["field", "--model", "schrodinger", "--n", "5", "--l", "3", "--m", "3", *_ANGLES],
    "state-dirac": ["state", "--model", "dirac", "--spin", "down", "--Z", "40", "--r", "0.1", "--theta", "1.0",
                    "--phi", "2.0"],
    "state-432": ["state", "--model", "schrodinger", "--n", "4", "--l", "3", "--m", "2", "--Z", "40", "--r", "0.5",
                  "--theta", "1.0"],
}


def output_digest(args, tmp_path, env):
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "bohmatom.cli", *args] + (["--out", str(out)] if args[0] == "field" else [])
    result = subprocess.run(argv, env=env, capture_output=True, check=True)
    return hashlib.sha256(out.read_bytes() if args[0] == "field" else result.stdout).hexdigest()


@pytest.mark.skipif(not RESTRICTED, reason="numpy finds no SIMD kernel above its baseline on this CPU")
@pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS.keys())
def test_output_bytes_do_not_depend_on_cpu_dispatch(args, tmp_path):
    plain = output_digest(args, tmp_path, _ENV)
    restricted = {name: output_digest(args, tmp_path, env) for name, env in RESTRICTED.items()}
    assert restricted == dict.fromkeys(RESTRICTED, plain)
