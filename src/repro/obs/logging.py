"""Minimal leveled logger wired into the event bus.

The experiment CLI used bare ``print`` for status lines; this logger
replaces them so that (a) ``--log-level`` filters chatter, and (b) when
an observability pipeline is installed every log line also lands in the
event log as a ``log.<level>`` event.  Informational output goes to
stdout (preserving the CLI's pipe-friendly behaviour), warnings and
errors to stderr.

A lint-style test (``tests/obs/test_no_bare_print.py``) rejects new bare
``print(`` calls inside ``src/repro/`` outside ``__main__.py`` — use
``get_logger(name)`` instead.
"""

from __future__ import annotations

import sys
from typing import Any, TextIO

from . import runtime as _runtime

DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40
LEVELS = {"debug": DEBUG, "info": INFO, "warning": WARNING, "error": ERROR}
_NAMES = {v: k for k, v in LEVELS.items()}

_threshold = INFO


def set_level(level: str | int) -> None:
    """Set the global threshold (``"debug"``/``"info"``/... or numeric)."""
    global _threshold
    if isinstance(level, str):
        try:
            level = LEVELS[level.lower()]
        except KeyError:
            raise ValueError(f"unknown log level {level!r}") from None
    _threshold = int(level)


class ObsLogger:
    """Named logger; formats with %-style args like :mod:`logging`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _stream_for(self, level: int) -> TextIO:
        return sys.stderr if level >= WARNING else sys.stdout

    def log(self, level: int, msg: str, *args: Any) -> None:
        if args:
            msg = msg % args
        obs = _runtime.OBS
        if obs.enabled:
            obs.emit(f"log.{_NAMES.get(level, level)}", logger=self.name,
                     message=msg)
        if level < _threshold:
            return
        self._stream_for(level).write(f"[{self.name}] {msg}\n")

    def debug(self, msg: str, *args: Any) -> None:
        self.log(DEBUG, msg, *args)

    def info(self, msg: str, *args: Any) -> None:
        self.log(INFO, msg, *args)

    def warning(self, msg: str, *args: Any) -> None:
        self.log(WARNING, msg, *args)

    def error(self, msg: str, *args: Any) -> None:
        self.log(ERROR, msg, *args)


_loggers: dict[str, ObsLogger] = {}


def get_logger(name: str) -> ObsLogger:
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = ObsLogger(name)
    return logger
