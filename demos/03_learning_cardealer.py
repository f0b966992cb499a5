"""Learning an automaton from example documents.

Generates car-dealer listings, learns them incrementally, and shows the
resulting modular automaton: one module per inferred schema type, the
`ad` element typed differently under newcars and usedcars, and the model
module shared between both.
"""

from xvpa import Learner, NamingScheme, build_xvpa, default_system, to_dot
from xvpa.harness import cardealer_grammar, generate

dts = default_system()
learner = Learner(dts, NamingScheme("ancestor", k=1, l=2))

docs = generate(cardealer_grammar(), 50, seed=7)
print("learning 50 generated documents…")
for i, doc in enumerate(docs):
    changes = learner.learn(doc)
    if changes or i < 5:
        print(f"  step {i + 1:2d}: {changes} mind changes")
print(f"mind-change series: {learner.mind_changes}")

dxvpa = build_xvpa(learner.snapshot(), dts)
starts = "; ".join(" ".join(key) for key in dxvpa.roots.values())  # one per root element
print(f"\n{len(dxvpa.modules)} modules (start: {starts}):")
for key in sorted(dxvpa.modules, key=repr):
    mod = dxvpa.modules[key]
    datatypes = sorted({dt for _dst, dts_ in mod.internals.values() for dt in dts_})
    extra = f"  text: {', '.join(datatypes)}" if datatypes else ""
    print(f"  [{' '.join(key):18}] element <{mod.element}> "
          f"{len(mod.states)} states, {len(mod.calls)} calls{extra}")

print("\nGraphviz rendering (pipe into `dot -Tsvg`):\n")
print(to_dot(dxvpa))
