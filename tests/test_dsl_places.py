"""Where `parse` places a validation diagnostic when two elements share a
name: at the keyword of the element the diagnostic names."""

import pytest

from portsync.dsl import DslError, parse

from oracles import reference_parse

SAME_NAMES = """system dup {
  atom B1 {
    ports p;
    states a init, a;
  }
  atom B1 {
    ports q;
    states b init;
  }
  connector x = p p;
  connector x = q;
}
"""

# two atoms A whose first transitions validate names alike
SAME_TRANSITIONS = """system twin {
  atom A {
    ports a;
    states s init;
    trans s -[ a ]-> gone;
  }
  atom A {
    ports b;
    states s init;
    trans s -[ b ]-> gone;
  }
  connector c = a b;
}
"""


@pytest.mark.parametrize("text, expected", [
    (SAME_NAMES, ["2:3: atom B1: duplicate state names [unique-states]",
                  "6:3: atom B1: duplicate atom name [unique-atom-names]",
                  "10:3: connector x: port 'p' named more than once [linear-term]",
                  "11:3: connector x: duplicate connector name [unique-connector-names]"]),
    (SAME_TRANSITIONS, ["5:5: atom A trans #1 s->gone: endpoint not a declared state [transition-endpoints]",
                        "7:3: atom A: duplicate atom name [unique-atom-names]",
                        "10:5: atom A trans #1 s->gone: endpoint not a declared state [transition-endpoints]"]),
], ids=["atoms-and-connectors", "transitions"])
def test_a_diagnostic_sits_at_the_element_it_names(text, expected):
    for parse_text in (parse, reference_parse):
        with pytest.raises(DslError) as err:
            parse_text(text)
        assert [str(d) for d in err.value.diagnostics] == expected
