"""The public API surface: façade exports.

Pins down what ``repro.api`` and the package root export.  A new name
showing up in ``__all__`` should fail loudly here.
"""

import repro
import repro.api


class TestApiSurface:
    def test_api_all_is_exactly_the_facade(self):
        assert repro.api.__all__ == [
            "AppendReceipt",
            "DiffConfig",
            "DiffResult",
            "DocumentValidation",
            "InferenceConfig",
            "InferenceResult",
            "InferenceSession",
            "METHODS",
            "ValidationConfig",
            "ValidationResult",
            "diff",
            "infer",
            "validate",
        ]

    def test_top_level_reexports(self):
        # The façade is importable from the package root ...
        assert repro.infer is repro.api.infer
        assert repro.validate is repro.api.validate
        assert repro.diff is repro.api.diff
        assert repro.InferenceConfig is repro.api.InferenceConfig
        assert repro.InferenceResult is repro.api.InferenceResult
        assert repro.InferenceSession is repro.api.InferenceSession
        # ... next to the building blocks.
        for name in (
            "DTDInferencer",
            "infer_sore",
            "infer_chare",
            "parse_document",
            "parse_file",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
