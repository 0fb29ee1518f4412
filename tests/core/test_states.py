"""Unit and property tests for the Figure-4(a) state machine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.states import (
    CORE_TRANSITIONS,
    SideTaskState,
    StateMachine,
    TRANSITION_TABLE,
    Transition,
    legal_transitions,
)
from repro.errors import IllegalTransitionError


class TestTransitionTable:
    def test_happy_path(self):
        machine = StateMachine()
        machine.apply(Transition.CREATE, 0.0)
        machine.apply(Transition.INIT, 1.0)
        machine.apply(Transition.START, 2.0)
        machine.apply(Transition.RUN_NEXT_STEP, 2.5)
        machine.apply(Transition.PAUSE, 3.0)
        machine.apply(Transition.START, 4.0)
        machine.apply(Transition.STOP, 5.0)
        assert machine.state is SideTaskState.STOPPED
        assert machine.terminated

    def test_stop_reachable_from_created_paused_running(self):
        """Figure 4a: StopSideTask from CREATED, PAUSED, and RUNNING."""
        for path in ([Transition.CREATE],
                     [Transition.CREATE, Transition.INIT],
                     [Transition.CREATE, Transition.INIT, Transition.START]):
            machine = StateMachine()
            for transition in path:
                machine.apply(transition)
            machine.apply(Transition.STOP)
            assert machine.terminated

    def test_run_next_step_is_self_loop(self):
        machine = StateMachine(state=SideTaskState.RUNNING)
        machine.apply(Transition.RUN_NEXT_STEP)
        assert machine.state is SideTaskState.RUNNING

    def test_illegal_transitions_raise(self):
        machine = StateMachine()
        with pytest.raises(IllegalTransitionError):
            machine.apply(Transition.START)  # SUBMITTED -> RUNNING illegal
        machine.apply(Transition.CREATE)
        with pytest.raises(IllegalTransitionError):
            machine.apply(Transition.PAUSE)

    def test_stopped_is_terminal(self):
        machine = StateMachine(state=SideTaskState.STOPPED)
        for transition in Transition:
            with pytest.raises(IllegalTransitionError):
                machine.apply(transition)

    def test_submitted_cannot_stop_directly(self):
        """SUBMITTED has no process yet — nothing to stop (Figure 4a)."""
        assert Transition.STOP not in legal_transitions(SideTaskState.SUBMITTED)

    def test_legal_transitions_match_table(self):
        for state in SideTaskState:
            expected = {
                transition
                for (from_state, transition) in TRANSITION_TABLE
                if from_state is state
            }
            assert legal_transitions(state) == expected

    def test_six_core_transitions(self):
        """The paper's framework has exactly six transitions; the
        recovery layer adds four more."""
        assert len(CORE_TRANSITIONS) == 6
        assert len(Transition) == 10

    def test_error_reports_state_transition_and_task(self):
        machine = StateMachine(task_id="pagerank-0")
        with pytest.raises(IllegalTransitionError) as excinfo:
            machine.apply(Transition.START)
        error = excinfo.value
        assert error.current == "SUBMITTED"
        assert error.requested == "StartSideTask"
        assert error.task_id == "pagerank-0"
        message = str(error)
        assert "SUBMITTED" in message
        assert "StartSideTask" in message
        assert "pagerank-0" in message


class TestRecoveryEdges:
    """The CHECKPOINTED/PREEMPTED/RESUMED extension, exhaustively."""

    RECOVERY_TABLE = {
        (SideTaskState.RUNNING, Transition.CHECKPOINT):
            SideTaskState.CHECKPOINTED,
        (SideTaskState.CHECKPOINTED, Transition.RESUME):
            SideTaskState.RUNNING,
        (SideTaskState.CREATED, Transition.PREEMPT):
            SideTaskState.PREEMPTED,
        (SideTaskState.PAUSED, Transition.PREEMPT):
            SideTaskState.PREEMPTED,
        (SideTaskState.RUNNING, Transition.PREEMPT):
            SideTaskState.PREEMPTED,
        (SideTaskState.CHECKPOINTED, Transition.PREEMPT):
            SideTaskState.PREEMPTED,
        (SideTaskState.RESUMED, Transition.PREEMPT):
            SideTaskState.PREEMPTED,
        (SideTaskState.PREEMPTED, Transition.RESTORE):
            SideTaskState.RESUMED,
        (SideTaskState.RESUMED, Transition.START):
            SideTaskState.RUNNING,
        (SideTaskState.CHECKPOINTED, Transition.STOP):
            SideTaskState.STOPPED,
        (SideTaskState.PREEMPTED, Transition.STOP):
            SideTaskState.STOPPED,
        (SideTaskState.RESUMED, Transition.STOP):
            SideTaskState.STOPPED,
    }

    PAPER_TABLE = {
        (SideTaskState.SUBMITTED, Transition.CREATE): SideTaskState.CREATED,
        (SideTaskState.CREATED, Transition.INIT): SideTaskState.PAUSED,
        (SideTaskState.PAUSED, Transition.START): SideTaskState.RUNNING,
        (SideTaskState.RUNNING, Transition.PAUSE): SideTaskState.PAUSED,
        (SideTaskState.RUNNING, Transition.RUN_NEXT_STEP):
            SideTaskState.RUNNING,
        (SideTaskState.CREATED, Transition.STOP): SideTaskState.STOPPED,
        (SideTaskState.PAUSED, Transition.STOP): SideTaskState.STOPPED,
        (SideTaskState.RUNNING, Transition.STOP): SideTaskState.STOPPED,
    }

    def test_table_is_exactly_paper_plus_recovery(self):
        """The paper's 8 edges are intact and only the 12 recovery edges
        were added — no edge slipped in or out."""
        assert TRANSITION_TABLE == {**self.PAPER_TABLE, **self.RECOVERY_TABLE}

    @pytest.mark.parametrize("state,transition", sorted(
        (
            (state, transition)
            for state in SideTaskState
            for transition in Transition
            if (state, transition) not in TRANSITION_TABLE
        ),
        key=lambda pair: (pair[0].value, pair[1].value),
    ))
    def test_every_missing_edge_is_illegal(self, state, transition):
        machine = StateMachine(state=state, task_id="t")
        with pytest.raises(IllegalTransitionError):
            machine.apply(transition)
        assert machine.state is state

    def test_checkpoint_round_trip(self):
        machine = StateMachine(state=SideTaskState.RUNNING)
        machine.apply(Transition.CHECKPOINT, 1.0)
        assert machine.state is SideTaskState.CHECKPOINTED
        machine.apply(Transition.RESUME, 1.1)
        assert machine.state is SideTaskState.RUNNING

    def test_preempt_restore_start_cycle(self):
        machine = StateMachine(state=SideTaskState.RUNNING)
        machine.apply(Transition.PREEMPT, 1.0)
        assert machine.resumable
        machine.apply(Transition.RESTORE, 2.0)
        assert machine.state is SideTaskState.RESUMED
        machine.apply(Transition.START, 3.0)
        assert machine.state is SideTaskState.RUNNING

    def test_only_preempted_is_resumable(self):
        for state in SideTaskState:
            machine = StateMachine(state=state)
            assert machine.resumable == (state is SideTaskState.PREEMPTED)

    def test_checkpoint_only_from_running(self):
        for state in SideTaskState:
            legal = Transition.CHECKPOINT in legal_transitions(state)
            assert legal == (state is SideTaskState.RUNNING)

    def test_stopped_still_the_only_terminal_state(self):
        """STOP must remain reachable from every non-terminal state with
        a process, and STOPPED must remain absorbing."""
        for state in SideTaskState:
            if state in (SideTaskState.SUBMITTED, SideTaskState.STOPPED):
                assert Transition.STOP not in legal_transitions(state)
            else:
                assert Transition.STOP in legal_transitions(state)
        assert legal_transitions(SideTaskState.STOPPED) == set()


class TestTimeInState:
    def test_accounts_time_per_state(self):
        machine = StateMachine()
        machine.apply(Transition.CREATE, 0.0)
        machine.apply(Transition.INIT, 2.0)
        machine.apply(Transition.START, 5.0)
        machine.apply(Transition.PAUSE, 9.0)
        assert machine.time_in_state(SideTaskState.CREATED, until=10.0) == 2.0
        assert machine.time_in_state(SideTaskState.PAUSED, until=10.0) == 4.0
        assert machine.time_in_state(SideTaskState.RUNNING, until=10.0) == 4.0


@given(st.lists(st.sampled_from(list(Transition)), max_size=30))
def test_property_machine_never_enters_undefined_state(transitions):
    """Any transition sequence leaves the machine in a defined state, and
    illegal steps change nothing."""
    machine = StateMachine()
    for transition in transitions:
        before = machine.state
        if machine.can_apply(transition):
            machine.apply(transition)
            assert machine.state is TRANSITION_TABLE[(before, transition)]
        else:
            with pytest.raises(IllegalTransitionError):
                machine.apply(transition)
            assert machine.state is before
        assert machine.state in SideTaskState


@given(st.data())
def test_property_history_is_consistent(data):
    """Over a path of legal transitions, ``history`` lists exactly the
    state changes, in order, with non-decreasing times; ``RunNextStep``
    changes neither the state nor the history."""
    machine = StateMachine()
    changes = []
    now = 0.0
    for _ in range(30):
        legal = sorted(legal_transitions(machine.state),
                       key=lambda transition: transition.value)
        if not legal:  # STOPPED
            break
        transition = data.draw(st.sampled_from(legal))
        now += data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        before, history = machine.state, list(machine.history)
        machine.apply(transition, now)
        if transition is Transition.RUN_NEXT_STEP:
            assert machine.state is before
            assert machine.history == history
        else:
            assert machine.state is not before
            changes.append((now, machine.state))
    assert machine.history == changes
    times = [when for when, _state in machine.history]
    assert times == sorted(times)
