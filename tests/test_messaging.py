"""Message bus accounting tests."""

import pytest

from gridcoord import messaging as ms


def fresh(agents=("tso", "dso1", "dso2")):
    return ms.CommLog(agents)


class TestRounds:
    def test_fresh_log_round_one(self):
        log = fresh()
        assert log.begin_round() == 1

    def test_round_counts_up(self):
        log = fresh()
        for k in range(1, 6):
            assert log.begin_round() == k

    def test_send_before_round_rejected(self):
        log = fresh()
        with pytest.raises(ValueError):
            log.send("tso", "dso1", "setpoint", 3)

    def test_round_tags_monotone(self):
        log = fresh()
        for _ in range(4):
            log.begin_round()
            log.send("tso", "dso1", "consensus_z", 3)
            log.send("dso1", "tso", "consensus_z", 3)
        tags = [m.round for m in log.messages]
        assert tags == sorted(tags)
        assert log.stats()["rounds"] == 4


class TestSend:
    def test_single_send(self):
        log = fresh()
        log.begin_round()
        log.send("dso1", "tso", "for_package", 57)
        assert log.stats() == {"rounds": 1, "messages": 1, "total_floats": 57}

    def test_two_sends_same_round(self):
        log = fresh()
        log.begin_round()
        log.send("dso1", "tso", "for_package", 40)
        log.send("dso2", "tso", "for_package", 44)
        assert log.stats()["rounds"] == 1
        assert log.stats()["total_floats"] == 84

    def test_unknown_agent(self):
        log = fresh()
        log.begin_round()
        with pytest.raises(ms.UnknownAgent):
            log.send("tso", "dso9", "setpoint", 3)
        with pytest.raises(ms.UnknownAgent):
            log.send("ghost", "tso", "setpoint", 3)

    def test_invalid_kind(self):
        log = fresh()
        log.begin_round()
        with pytest.raises(ValueError):
            log.send("tso", "dso1", "gossip", 1)

    def test_negative_payload(self):
        log = fresh()
        log.begin_round()
        with pytest.raises(ValueError):
            log.send("tso", "dso1", "setpoint", -1)


class TestStats:
    def test_empty(self):
        assert fresh().stats() == {"rounds": 0, "messages": 0,
                                   "total_floats": 0}

    def test_one_round_two_messages(self):
        log = fresh()
        log.begin_round()
        log.send("tso", "dso1", "setpoint", 3)
        log.send("tso", "dso2", "setpoint", 3)
        assert log.stats() == {"rounds": 1, "messages": 2, "total_floats": 6}

    def test_iterative_exchange_count(self):
        # 103 iterations x 2 DSOs x 2 directions = 412 messages.
        log = fresh()
        for _ in range(103):
            log.begin_round()
            for dso in ("dso1", "dso2"):
                log.send("tso", dso, "consensus_z", 3)
                log.send(dso, "tso", "consensus_z", 3)
        st = log.stats()
        assert st["messages"] == 412
        assert st["rounds"] == 103
        assert st["total_floats"] == 412 * 3


class TestJson:
    def test_duplicate_agents_rejected(self):
        with pytest.raises(ValueError):
            ms.CommLog(("tso", "tso"))
