"""Network data representation (NDR).

Access transparency (section 5.1) needs generated marshalling: values cross
the network as bytes in a node's *wire format*.  Two genuinely incompatible
formats are provided — ``packed`` (compact binary) and ``tagged``
(self-describing textual) — so the heterogeneity and federation machinery
has real representation differences to bridge, as the paper requires
(section 4.2).  Each format is one module that owns every byte it writes
and reads (:mod:`repro.ndr.packed`, :mod:`repro.ndr.tagged`);
:mod:`repro.ndr.formats` is the access path and registry they share.
"""

from repro.ndr.formats import (
    WireFormat,
    get_format,
    register_format,
    available_formats,
)
from repro.ndr.packed import PackedFormat
from repro.ndr.tagged import TaggedFormat
from repro.ndr.sigcodec import signature_to_obj, signature_from_obj
from repro.ndr.codec import Marshaller

__all__ = [
    "WireFormat",
    "PackedFormat",
    "TaggedFormat",
    "get_format",
    "register_format",
    "available_formats",
    "signature_to_obj",
    "signature_from_obj",
    "Marshaller",
]
