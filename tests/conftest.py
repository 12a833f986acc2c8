"""Pin OpenBLAS's core so the frozen float64 records read one rounding."""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could set OPENBLAS_CORETYPE")
os.environ["OPENBLAS_CORETYPE"] = "Haswell"
