"""Shared utilities: seeding, caching and report rendering."""

from .atomic import atomic_write_bytes, atomic_write_text
from .concurrency import access, checkpoint, guarded_by
from .rng import child_rng, get_rng_state, set_rng_state, spawn_seeds
from .render import format_duration, format_series, format_table

__all__ = ["child_rng", "spawn_seeds", "get_rng_state", "set_rng_state",
           "atomic_write_text", "atomic_write_bytes",
           "guarded_by", "access", "checkpoint",
           "format_duration", "format_table", "format_series"]
