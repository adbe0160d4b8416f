"""CLI logging: one ``repro`` logger, stderr-only, level-prefixed.

The CLI's contract is that **stdout carries only the product** (tables,
JSON, reports) and every diagnostic — progress, notes, failure
details — goes to stderr.  This module owns that stderr side:
:func:`configure` binds a single stream handler for the ``repro``
logger hierarchy at the verbosity the user picked (``-q`` errors only,
default informational, ``-v`` debug).

``configure`` is called at the top of every ``main()`` invocation and
re-binds the handler to the *current* ``sys.stderr`` — under pytest's
``capsys`` (and anything else that swaps the stream per call) a handler
captured at import time would write into a closed buffer.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, TextIO

__all__ = ["LOGGER_NAME", "get_logger", "configure", "level_for"]

#: Root of the package's logger hierarchy.
LOGGER_NAME = "repro"

#: Marker attribute identifying the handler :func:`configure` manages.
_HANDLER_MARK = "_repro_cli_handler"


class _LevelFormatter(logging.Formatter):
    """Prefix non-informational records with their lowercased level.

    Informational lines print bare (they are user-facing narration);
    ``warning:``/``error:``/``debug:`` prefixes keep the historical CLI
    stderr format that scripts and tests grep for.
    """

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        if record.levelno == logging.INFO:
            return message
        return f"{record.levelname.lower()}: {message}"


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro`` logger, or the ``repro.<name>`` child."""
    if name:
        return logging.getLogger(f"{LOGGER_NAME}.{name}")
    return logging.getLogger(LOGGER_NAME)


def level_for(verbosity: int) -> int:
    """Map a ``-q``/``-v`` count to a logging level.

    Negative (``-q``) shows only errors, zero is the informational
    default, positive (``-v``) enables debug output.
    """
    if verbosity < 0:
        return logging.ERROR
    if verbosity > 0:
        return logging.DEBUG
    return logging.INFO


def configure(
    verbosity: int = 0, stream: TextIO | None = None
) -> logging.Logger:
    """(Re)bind the CLI stderr handler at the requested verbosity.

    Idempotent per process: the previously configured handler is
    replaced, never stacked, so repeated ``main()`` calls (the test
    suite drives the CLI in-process) emit each diagnostic once, to the
    stream that is ``sys.stderr`` *now*.
    """
    logger = get_logger()
    logger.setLevel(level_for(verbosity))
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)
    handler: Any = logging.StreamHandler(
        stream if stream is not None else sys.stderr
    )
    handler.setFormatter(_LevelFormatter())
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    return logger
