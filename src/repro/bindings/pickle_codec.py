"""Pickle serialization for the lower-case communication methods.

mpi4py communicates generic Python objects by pickling on the sender and
unpickling on the receiver; the protocol version is configurable via the
``MPI4PY_PICKLE_PROTOCOL`` environment variable.  This codec reproduces
that behaviour (under ``OMBPY_PICKLE_PROTOCOL``) and counts bytes/calls so
benchmarks can report serialization overhead directly.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any

from ..knobs import PICKLE_PROTOCOL, read


class PickleCodec:
    """Stateful pickle codec with byte/call accounting."""

    def __init__(self, protocol: int | None = None) -> None:
        if protocol is None:
            protocol = read(PICKLE_PROTOCOL)
        self.protocol = PICKLE_PROTOCOL.check(protocol, what="pickle protocol")
        self._lock = threading.Lock()
        self.dumps_calls = 0
        self.loads_calls = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def dumps(self, obj: Any) -> bytes:
        """Serialize ``obj``; accounts the wire size."""
        data = pickle.dumps(obj, self.protocol)
        with self._lock:
            self.dumps_calls += 1
            self.bytes_out += len(data)
        return data

    def loads(self, data: bytes) -> Any:
        """Deserialize wire bytes produced by :meth:`dumps`."""
        obj = pickle.loads(data)
        with self._lock:
            self.loads_calls += 1
            self.bytes_in += len(data)
        return obj

    def overhead_bytes(self, payload_nbytes: int, obj: Any) -> int:
        """Pickle-framing overhead for an object with a known payload size."""
        return len(self.dumps(obj)) - payload_nbytes

    def reset_stats(self) -> None:
        with self._lock:
            self.dumps_calls = self.loads_calls = 0
            self.bytes_out = self.bytes_in = 0
