"""Complete verifier for feedforward ReLU networks over box input domains.

Branch-and-bound with linear relaxation bounds; branching is guided by the
relaxation gap at the bound's closed-form minimizer. Includes baseline and
ablation heuristics, an exact small-instance oracle, and a benchmark harness.
"""

# cli is left out: importing it here would make `python -m reluverify.cli`
# find the module already loaded and warn.
from . import bab, heuristics, model, oracle, relax, witness

__version__ = "0.1.0"

__all__ = ["bab", "heuristics", "model", "oracle", "relax", "witness", "__version__"]
