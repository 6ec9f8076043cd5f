"""Built-in lint rules; importing this package registers all of them.

One module per rule family — mirror this layout (and see
``docs/static-analysis.md``) when adding a family.
"""

from . import (  # noqa: F401
    determinism,
    docs,
    errors,
    program,
    schemes,
    units,
)

__all__ = [
    "determinism",
    "docs",
    "errors",
    "program",
    "schemes",
    "units",
]
