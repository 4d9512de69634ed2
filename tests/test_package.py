"""The package's public surface."""

import kstepkd


def test_all_exports_resolve():
    missing = [name for name in kstepkd.__all__ if not hasattr(kstepkd, name)]
    assert missing == []
    assert len(set(kstepkd.__all__)) == len(kstepkd.__all__)
