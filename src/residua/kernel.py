"""Kernel backend selection.

Prefers the compiled extension when it is built, falls back to the pure
Python twin otherwise.  RESIDUA_KERNEL=py or =c forces a backend (the
benchmark and the cross-backend tests use this); forcing =c when the
extension is missing raises loudly rather than degrading silently.
"""

from __future__ import annotations

import os

_forced = os.environ.get("RESIDUA_KERNEL", "").strip().lower()

if _forced == "py":
    from residua import _kernel_py as _impl

    BACKEND = "py"
elif _forced == "c":
    from residua import _kernel_c as _impl  # type: ignore[attr-defined]

    BACKEND = "c"
elif _forced:
    raise ValueError(f"unknown RESIDUA_KERNEL value: {_forced!r} (use 'py' or 'c')")
else:
    try:
        from residua import _kernel_c as _impl  # type: ignore[attr-defined]

        BACKEND = "c"
    except ImportError:
        from residua import _kernel_py as _impl

        BACKEND = "py"

exp_add = _impl.exp_add
exp_sub = _impl.exp_sub
exp_lcm = _impl.exp_lcm
exp_divides = _impl.exp_divides
leading_key = _impl.leading_key
add_scaled_inplace = _impl.add_scaled_inplace
reduce_terms = _impl.reduce_terms
