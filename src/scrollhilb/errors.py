"""Shared error type for hypothesis violations.

Every validation in this package rejects the *first* inequality that fails,
in a fixed documented order, and names it with a stable kebab-case code so
that callers (and the CLI) can rely on deterministic diagnostics.  Each
inequality is checked in one function.  A scroll is checked in this order:
``ScrollParams`` 1-3, ``require_admissible`` 4-6, ``section_data`` 7-8::

    1  genus-too-small                g < 3                     ScrollParams
    2  speciality-out-of-range        h1 <= 0 or h1 >= g        series._require_speciality
    3  degree-too-small               d < 2g + 2                ScrollParams
    4  degree-below-threshold         d < min_degree_threshold  scroll._degree_threshold
    5  BN1-violated                   g < 4*h1, not (3, 1)      series._section_degree_range
    6  m-out-of-range                 m outside the range       series._section_degree_range
    7  not-a-section                  m - g + h1 < 2            scroll._require_section
    8  nonnegative-self-intersection  2m - d >= 0               scroll._require_section

Code 5 negates ``series._has_general_moduli``; ``scan`` classifies only the
cells where it holds and d reaches the threshold, and exits 2 on an error
there.  README.md lists every code, with the other bounds of codes 1, 3
and 6.
"""

from __future__ import annotations


class InvalidParameters(ValueError):
    """Input violates a documented hypothesis.

    ``code`` is a stable kebab-case identifier of the violated inequality
    (e.g. ``"speciality-out-of-range"``); ``str(exc)`` is a one-line
    diagnostic of the form ``"<code>: <detail>"``.
    """

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class _Checked:
    """Base of the validated named-tuple records whose constructor takes
    every field: ``_make``, which ``_replace`` calls, builds through the
    constructor's checks.  It precedes the field tuple among the bases."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
