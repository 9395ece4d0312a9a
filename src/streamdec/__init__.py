"""Multi-stream LDPC decoding: batched min-sum kernels behind worker pipelines."""

from .backend import HAVE_NUMBA, active_backend, available_backends
from .batch import BatchOutcome, decode_batch, deinterleave, interleave
from .channel import AwgnChannel, llr_from_channel, modulate_bpsk, transmit
from .code import (
    AlistFormatError,
    DegenerateCodeError,
    GeneratorForm,
    ParityCheckCode,
    emit_alist,
    from_dense,
    parse_alist,
    random_regular_code,
    syndrome,
    systematic_form,
)
from .decoder import DecodeOutcome, DecoderConfig, check_node_update, decode_frame
from .engine import (
    DecodeJob,
    Engine,
    ShutdownSummary,
    StreamConfig,
    SubmitStatus,
    engine_start,
)

__version__ = "0.1.0"

__all__ = [
    "AlistFormatError",
    "AwgnChannel",
    "BatchOutcome",
    "DecodeJob",
    "DecodeOutcome",
    "DecoderConfig",
    "DegenerateCodeError",
    "Engine",
    "GeneratorForm",
    "HAVE_NUMBA",
    "ParityCheckCode",
    "ShutdownSummary",
    "StreamConfig",
    "SubmitStatus",
    "active_backend",
    "available_backends",
    "check_node_update",
    "decode_batch",
    "decode_frame",
    "deinterleave",
    "emit_alist",
    "engine_start",
    "from_dense",
    "interleave",
    "llr_from_channel",
    "modulate_bpsk",
    "parse_alist",
    "random_regular_code",
    "syndrome",
    "systematic_form",
    "transmit",
    "__version__",
]
