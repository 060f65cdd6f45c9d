"""Runtime field-access witness: the dynamic half of the guarded-by checker.

The static side (``repro.analysis.guards``) proves from the AST that
every access to a lock-guarded field happens with the lock held; these
tests prove the runtime side enforces the same manifest on live objects:
install/uninstall mechanics, construction-phase exemption, the
subclass-constructor opt-out, and arming from the committed
``guards.lock.json``.
"""

import pytest

import repro.util.sync as sync
from repro.analysis import lockorder
from repro.analysis.lockorder import LockDecl, LockHierarchy
from repro.errors import GuardViolationError
from repro.util.ids import IdAllocator
from repro.util.sync import (
    GuardedField,
    arm_guard_witness,
    install_guard_witness,
    sanitize_enabled,
    set_sanitize,
    tracked_lock,
    uninstall_guard_witness,
)

KEY_BOX = "fix.Box._lock"


class Box:
    """Minimal witnessed class: one guarded field, one lock."""

    def __init__(self, value=0):
        self._lock = tracked_lock(KEY_BOX)
        self.value = value  # construction-phase write: never checked

    def bump(self):
        with self._lock:
            self.value += 1
            return self.value


class LoudBox(Box):
    """Subclass with its own __init__: must NOT be armed (its constructor
    keeps assigning fields after super().__init__ returns)."""

    def __init__(self):
        super().__init__()
        self.value = 100  # post-super write; legal only because unarmed


def _fixture_hierarchy():
    real = [lockorder.DEFAULT.get(k) for k in lockorder.DEFAULT.keys()]
    return LockHierarchy(real + [LockDecl(KEY_BOX, 150)])


@pytest.fixture
def witness():
    previous = sanitize_enabled()
    set_sanitize(True)
    try:
        with lockorder.activated(_fixture_hierarchy()):
            yield
    finally:
        set_sanitize(previous)


@pytest.fixture
def boxed(witness):
    install_guard_witness(Box, {"value": KEY_BOX}, owner_key="fix.Box")
    try:
        yield
    finally:
        uninstall_guard_witness(Box)


class TestGuardedField:
    def test_unlocked_read_raises(self, boxed):
        box = Box(7)
        with pytest.raises(GuardViolationError, match="fix.Box.value"):
            box.value

    def test_unlocked_write_raises(self, boxed):
        box = Box()
        with pytest.raises(GuardViolationError, match=KEY_BOX):
            box.value = 9

    def test_access_under_guard_passes(self, boxed):
        box = Box(1)
        assert box.bump() == 2
        with box._lock:
            assert box.value == 2
            box.value = 5
        assert box.bump() == 6

    def test_construction_phase_is_exempt(self, boxed):
        # Box.__init__ assigns self.value bare; arming happens only
        # after the constructor returns, matching the static
        # construction-phase exclusion.
        box = Box(3)
        with box._lock:
            assert box.value == 3

    def test_class_access_returns_descriptor(self, boxed):
        assert isinstance(Box.value, GuardedField)
        assert Box.value.guard_key == KEY_BOX

    def test_delete_is_checked_too(self, boxed):
        box = Box()
        with pytest.raises(GuardViolationError):
            del box.value
        with box._lock:
            del box.value
        with box._lock, pytest.raises(AttributeError):
            box.value


class TestArming:
    def test_subclass_with_own_init_is_unwitnessed(self, boxed):
        loud = LoudBox()  # post-super bare write in its __init__
        assert loud.value == 100  # never armed: bare reads stay legal

    def test_preexisting_instances_are_not_armed(self, witness):
        old = Box(4)
        install_guard_witness(Box, {"value": KEY_BOX}, owner_key="fix.Box")
        try:
            assert old.value == 4  # value already in __dict__, unarmed
            fresh = Box(5)
            with pytest.raises(GuardViolationError):
                fresh.value
        finally:
            uninstall_guard_witness(Box)

    def test_sanitize_off_disables_checks(self, boxed):
        box = Box(1)
        set_sanitize(False)
        assert box.value == 1  # armed, but the witness is off

    def test_double_install_rejected(self, boxed):
        with pytest.raises(RuntimeError, match="already installed"):
            install_guard_witness(Box, {"value": KEY_BOX})


class TestUninstall:
    def test_uninstall_restores_class_exactly(self, witness):
        original_init = Box.__init__
        install_guard_witness(Box, {"value": KEY_BOX}, owner_key="fix.Box")
        assert Box.__init__ is not original_init
        uninstall_guard_witness(Box)
        assert Box.__init__ is original_init
        assert "value" not in Box.__dict__
        box = Box(2)
        assert box.value == 2  # bare access legal again

    def test_values_survive_uninstall(self, witness):
        install_guard_witness(Box, {"value": KEY_BOX}, owner_key="fix.Box")
        box = Box(8)
        uninstall_guard_witness(Box)
        # The descriptor stored the value in the instance dict under the
        # field's own name, so removal leaves a plain attribute behind.
        assert box.value == 8


class TestArmFromManifest:
    def test_manifest_arms_real_classes(self, witness):
        # Under a TDP_SANITIZE=1 suite run the conftest already armed
        # everything (arm_guard_witness skips installed classes), so
        # only uninstall what THIS call added.
        before = set(sync._witnessed_classes)
        arm_guard_witness()
        try:
            alloc = IdAllocator()
            assert alloc.next() == 1
            with pytest.raises(GuardViolationError, match="IdAllocator._last"):
                alloc._last
            with alloc._lock:
                assert alloc._last == 1
            assert alloc.last == 1  # the locked property is the public path
        finally:
            for cls in set(sync._witnessed_classes) - before:
                uninstall_guard_witness(cls)

    def test_manifest_covers_expected_classes(self, witness):
        before = set(sync._witnessed_classes)
        armed = arm_guard_witness()
        try:
            covered = {c.__name__ for c in sync._witnessed_classes}
            # Spot-check load-bearing daemon state: the client session,
            # the lease table, and the sim process all carry witnesses.
            for name in ("_Session", "_SessionLease", "SimProcess"):
                assert name in covered
            if armed:  # fresh arm (sanitizer-off suite run)
                assert "attrspace.client._Session" in armed
        finally:
            for cls in set(sync._witnessed_classes) - before:
                uninstall_guard_witness(cls)
