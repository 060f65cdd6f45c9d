"""Unit tests for the standard attribute vocabulary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tdp.wellknown import Attr, CreateMode, ProcStatus
from repro.util.strings import validate_attribute_name


class TestAttrNames:
    def test_proc_status_template(self):
        assert Attr.proc_status(4711) == "proc.4711.status"

    def test_all_generated_names_are_valid_attribute_names(self):
        names = [
            Attr.PID,
            Attr.EXECUTABLE_NAME,
            Attr.APP_HOST,
            Attr.APP_ARGS,
            Attr.RT_FRONTEND,
            Attr.RM_PROXY,
            Attr.STDIO_ENDPOINT,
            Attr.proc_status(1),
            Attr.proc_exit_code(1),
            Attr.ctl_request("tok-1"),
            Attr.ctl_reply("tok-1"),
            Attr.presence("paradynd/0"),
            Attr.fault("paradynd/0"),
            Attr.aux_endpoint("mrnet"),
            Attr.aux_status("mrnet"),
        ]
        for name in names:
            validate_attribute_name(name)

    def test_status_pattern_matches_status_names(self):
        import fnmatch

        assert fnmatch.fnmatchcase(Attr.proc_status(99), Attr.PROC_STATUS_PATTERN)
        assert not fnmatch.fnmatchcase(
            Attr.proc_exit_code(99), Attr.PROC_STATUS_PATTERN
        )

    def test_ctl_pattern(self):
        import fnmatch

        assert fnmatch.fnmatchcase(Attr.ctl_request("x"), Attr.CTL_REQUEST_PATTERN)
        assert not fnmatch.fnmatchcase(Attr.ctl_reply("x"), Attr.CTL_REQUEST_PATTERN)


class TestProcStatus:
    def test_exited_roundtrip(self):
        status = ProcStatus.exited(7)
        assert ProcStatus.is_exited(status)
        assert ProcStatus.exit_code(status) == 7

    def test_non_exited(self):
        for status in (ProcStatus.CREATED, ProcStatus.RUNNING, ProcStatus.STOPPED):
            assert not ProcStatus.is_exited(status)
            with pytest.raises(ValueError):
                ProcStatus.exit_code(status)

    @given(st.integers(min_value=-255, max_value=255))
    def test_exit_code_roundtrip_property(self, code):
        assert ProcStatus.exit_code(ProcStatus.exited(code)) == code


class TestCreateMode:
    def test_values(self):
        assert CreateMode.RUN.value == "run"
        assert CreateMode.PAUSED.value == "paused"
