"""A re-export of the kernels that perfbench/kernelrows.py times by this
module name; it goes once the benchmark times campana.kernels itself."""
from .kernels import conic_has_solution, norm_mod
