"""Adapters at the DataCell periphery: channels, replay, generators."""

from .channels import Channel, InMemoryChannel, format_tuple, parse_tuple_text
from .replay import ReplaySource, load_csv_rows

__all__ = [
    "Channel",
    "InMemoryChannel",
    "format_tuple",
    "parse_tuple_text",
    "ReplaySource",
    "load_csv_rows",
]
