"""Exact solver and lower bounds for the vertex, edge and mixed metric
dimension of connected simple graphs.

The top level holds what the command line, the library quick start and the
benchmark reach; every other name lives in its own module."""

from .bounds import BoundsReport, bounds_report
from .cover import SolveTimeout, available_backends
from .dims import edge_metric_dimension, metric_dimension, mixed_metric_dimension
from .families import connected_graphs_of_order, encode_graph6, generate_named, parse_graph6
from .graphs import DisconnectedGraphError, Graph, GraphError, build_graph
from .torus import torus_theorem_check

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "DisconnectedGraphError",
    "Graph",
    "GraphError",
    "SolveTimeout",
    "available_backends",
    "bounds_report",
    "build_graph",
    "connected_graphs_of_order",
    "edge_metric_dimension",
    "encode_graph6",
    "generate_named",
    "metric_dimension",
    "mixed_metric_dimension",
    "parse_graph6",
    "torus_theorem_check",
]
