"""The package's lazy export table."""
import momentropy


def test_every_exported_name_resolves():
    for name in momentropy.__all__:
        assert getattr(momentropy, name) is not None, name
