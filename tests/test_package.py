"""The public API list: every exported name exists on the package."""

import biquadrank


def test_every_name_in_all_resolves():
    missing = [name for name in biquadrank.__all__ if not hasattr(biquadrank, name)]
    assert missing == []
