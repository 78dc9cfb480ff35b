"""Suite-wide test setup.

When a hypothesis test fails, the hypothesis pytest plugin imports
hypothesis.extra._patching, which imports libcst, which emits a
DeprecationWarning on import. Under filterwarnings = error that warning is
raised inside the plugin's report hook, and pytest stops with INTERNALERROR
instead of printing the falsifying example. Importing the module once here,
with that warning ignored, makes the plugin's later import a no-op.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then writes no patch
        pass
