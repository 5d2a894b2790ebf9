"""Compression-based complexity analysis and synthesis of packet traces.

A trace is a sequence of (source, destination) ID pairs.  Its complexity is
summarized by two ratios of compressed sizes: a temporal score (how much the
original ordering helps compression, relative to a shuffled copy) and a
non-temporal score (how concentrated the traffic matrix is, relative to a
uniform counterpart).  The product of the two places the trace on a 2-D
complexity map.  The generator runs the mapping in reverse: given a target
point it solves for a Zipf traffic matrix and a repeat probability, then
synthesizes a trace with a first-order repeat chain.
"""

from .complexity import (ComplexityPoint, CompressorHandle, clear_size_cache,
                         complexity_of_slices, compressed_size, trace_complexity)
from .entropy import (TrafficMatrix, empirical_matrix, joint_entropy,
                      normalized_nontemporal, repeat_chain_entropy_rate,
                      solve_repeat_probability, solve_zipf_exponent, zipf_matrix)
from .errors import (ConfigError, DataError, EmptyTraceError, SolverError,
                     TraceComplexityError, TraceParseError)
from .generator import (REFERENCE_TARGETS, GeneratorSpec, MapTarget, generate,
                        reference_presets, spec_from_json, spec_from_target,
                        spec_from_trace, spec_to_json, write_spec)
from .reports import AnalysisReport, load_report
from .svgplots import MapPoint, complexity_map_svg, matrix_heatmap_svg, write_map_csv
from .trace import (CsvFormat, IdSpace, Trace, encode_canonical, load_trace,
                    parse_trace, slice_column, write_trace)
from .transforms import RngSeed, default_uniform_mode, resample_uniform, temporal_shuffle

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ComplexityPoint",
    "CompressorHandle",
    "ConfigError",
    "CsvFormat",
    "DataError",
    "EmptyTraceError",
    "GeneratorSpec",
    "IdSpace",
    "MapPoint",
    "MapTarget",
    "REFERENCE_TARGETS",
    "RngSeed",
    "SolverError",
    "Trace",
    "TraceComplexityError",
    "TraceParseError",
    "TrafficMatrix",
    "clear_size_cache",
    "complexity_map_svg",
    "complexity_of_slices",
    "compressed_size",
    "default_uniform_mode",
    "empirical_matrix",
    "encode_canonical",
    "generate",
    "joint_entropy",
    "load_report",
    "load_trace",
    "matrix_heatmap_svg",
    "normalized_nontemporal",
    "parse_trace",
    "reference_presets",
    "repeat_chain_entropy_rate",
    "resample_uniform",
    "slice_column",
    "solve_repeat_probability",
    "solve_zipf_exponent",
    "spec_from_json",
    "spec_from_target",
    "spec_from_trace",
    "spec_to_json",
    "temporal_shuffle",
    "trace_complexity",
    "write_map_csv",
    "write_spec",
    "write_trace",
    "zipf_matrix",
]
