"""Adapters at the DataCell periphery: channels and generators."""

from .channels import Channel, InMemoryChannel, format_tuple, parse_tuple_text

__all__ = [
    "Channel",
    "InMemoryChannel",
    "format_tuple",
    "parse_tuple_text",
]
