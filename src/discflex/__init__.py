"""Surrogate-driven design exploration for flexible disc coupling elements.

The package covers the full pipeline: dataset synthesis and I/O
(:mod:`discflex.dataset`), polynomial response-surface surrogates
(:mod:`discflex.rsm`), regularized neural surrogates (:mod:`discflex.ann`),
constrained two-objective search (:mod:`discflex.nsga2`), case-study
assembly and parametric studies (:mod:`discflex.explorer`), and a
command-line front end (:mod:`discflex.cli`).
"""

__version__ = "0.1.0"
