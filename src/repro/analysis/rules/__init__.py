"""Built-in analysis rules; importing this package registers them all."""

from . import (  # noqa: F401  (import for registration side effect)
    digest,
    hygiene,
    locks,
    naming,
    wire_protocol,
)
