"""Core MPI trace data model: datatypes, communicators, events, traces, packets."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".blocks": (
        "EventBlock", "KIND_COLLECTIVE", "KIND_P2P_RECV", "KIND_P2P_SEND", "OPS", "OP_CODE",
    ),
    ".communicator": ("CartesianCommunicator", "Communicator", "CommunicatorTable"),
    ".datatypes": (
        "DERIVED_SIZE_CONVENTION", "DatatypeRegistry", "DerivedDatatype", "DerivedKind",
        "MPIDatatype",
    ),
    ".events": (
        "CollectiveEvent", "CollectiveOp", "Direction", "P2PEvent", "ROOTED_OPS", "TraceEvent",
        "VECTOR_OPS",
    ),
    ".packets": ("MAX_PAYLOAD_BYTES", "packets_for_bytes", "packets_for_bytes_array"),
    ".stream": (
        "DEFAULT_CHUNK_BYTES", "ROW_BYTES", "BlockStream", "load_spill_trace", "open_spill",
        "rechunk_blocks", "slice_block", "write_spill",
    ),
    ".trace": ("Trace", "TraceMetadata"),
})
