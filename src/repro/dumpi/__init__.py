"""The repro-dumpi ASCII trace format: writer, parser, repository."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ascii_dumpi": (
        "UndecodedCallError", "UnsupportedCommunicatorError", "load_dumpi2ascii_dir",
        "load_rank_file", "parse_rank_stream", "stream_dumpi2ascii_dir",
    ),
    ".format": ("FORMAT_VERSION", "MAGIC"),
    ".parser": ("ParseError", "load_trace", "loads_trace", "read_trace"),
    ".repository": ("TraceKey", "TraceRepository"),
    ".writer": ("dump_trace", "dumps_trace", "write_trace"),
})
