"""Exception types shared across the pipeline.

Everything that stems from bad or inconsistent *input* derives from
InputError so the CLI can map it to a single exit code.
"""


class CxgError(Exception):
    """Base class for all pipeline errors."""


class InputError(CxgError):
    """Malformed or inconsistent input (files, spec lines, config)."""


class DecodeError(InputError):
    """Invalid UTF-8 in an input file; the message names its line and byte offset."""


class ParseError(InputError):
    """Malformed structured input (TSV rows, construction spec lines)."""


class FacetMissingError(InputError):
    """A sentence lacks a facet kind the inventory requires."""


class EmptyBandError(InputError):
    """A frequency band selects no constructions."""


class StaleInputError(InputError):
    """A derived file was produced under a different configuration."""
