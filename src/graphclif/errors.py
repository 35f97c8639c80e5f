"""Exceptions shared by modules at every layer."""


class CapabilityError(RuntimeError):
    """Structurally fine input beyond a configured size limit."""
