"""Test-wide setup: the expected lines assume CPython's default digit limit."""

import sys

# A PYTHONINTMAXSTRDIGITS in the caller's environment lowers the int/str
# conversion limit that error lines name; the tests run at the default.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
