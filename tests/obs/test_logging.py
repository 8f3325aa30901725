"""The shared ``repro.*`` logging helper."""

import io
import logging

from repro.obs.log import configure_logging, get_logger, verbosity_to_level


class TestVerbosityMapping:
    def test_levels(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(-3) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(9) == logging.DEBUG


class TestGetLogger:
    def test_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("tool").name == "repro.tool"
        child = get_logger("parallel.sharded")
        assert child.parent.name in ("repro.parallel", "repro")


class TestConfigureLogging:
    def test_idempotent_no_handler_stacking(self):
        first = io.StringIO()
        second = io.StringIO()
        logger = configure_logging(1, stream=first)
        before = len(logger.handlers)
        logger = configure_logging(2, stream=second)
        assert len(logger.handlers) == before
        logger.debug("only second stream sees this")
        assert "only second stream" not in first.getvalue()
        assert "only second stream" in second.getvalue()
        configure_logging(0, stream=io.StringIO())  # restore default

    def test_level_gates_output(self):
        stream = io.StringIO()
        logger = configure_logging(0, stream=stream)
        logger.info("hidden")
        logger.warning("shown")
        text = stream.getvalue()
        assert "hidden" not in text
        assert "shown" in text
        assert "WARNING repro: shown" in text
        configure_logging(0, stream=io.StringIO())
