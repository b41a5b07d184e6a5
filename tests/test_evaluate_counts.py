"""Per-world formula evaluations per answer: constituent tables and
satisfiability come from truth-table masks, so no verdict walks a formula once
per world.  A regression bound that does not depend on timing."""

from fractions import Fraction

import pytest

from probsyll import ConditionalEvent, Event, check_coherence, enumerate_constituents
from probsyll import events

F = Fraction


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list that grows by one per Event.evaluate call; the table cache is
    emptied so that a cached table cannot hide a sweep."""
    calls = []
    original = Event.evaluate

    def counting(self, world):
        calls.append(self)
        return original(self, world)

    monkeypatch.setattr(Event, "evaluate", counting)
    events._table.cache_clear()
    return calls


def test_twelve_atom_table(evaluate_calls):
    x = [Event.atom(f"X{i}") for i in range(12)]
    family = [ConditionalEvent(x[2 * i] & x[2 * i + 1] | ~x[(2 * i + 5) % 12],
                               x[(i + 3) % 12] | x[i])
              for i in range(6)]
    table = enumerate_constituents(family)
    assert len(table.atoms) == 12
    assert evaluate_calls == []
    # The counter does count: value_in still evaluates per world.
    family[0].value_in(dict(zip(table.atoms, table.constituents[0].representative)))
    assert evaluate_calls


def test_check_coherence(evaluate_calls, families):
    assert check_coherence(families["fig1_premise"], [F(1, 2), F(1, 2), 0])
    assert evaluate_calls == []
