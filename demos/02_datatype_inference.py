"""Datatype inference: from raw text to minimal XSD datatype antichains.

The datatype system orders the lexically distinct XSD datatypes by
inclusion of their lexical spaces.  For any text it finds the minimal
accepting datatypes, then a kind-preference heuristic drops the least
informative ones.  Aggregation folds the inferences of many texts into
one covering antichain.
"""

from xvpa import default_system

dts = default_system()
print(f"{len(dts.datatypes)} datatypes, definition hash {dts.content_hash[:12]}…\n")

for text in ["false", "33", "-7", "19.99", "2015Z", "2015-09", "1999-12-31",
             "P1Y6M", "hello world", "deadbeef", "QQ==", "mailto:x@example.org",
             "two  spaces", "line\nbreak", ""]:
    minimal = sorted(dts.minimal_datatypes(text))
    preferred = sorted(dts.infer(text))
    print(f"{text!r:28} minimal={minimal}  ->  inferred={preferred}")

print("\nfolding a column of values:")
column = ["1", "0", "true", "33"]
folded = None
for value in column:
    inferred = dts.infer(value)
    folded = inferred if folded is None else dts.maxima(folded | inferred)
    print(f"  after {value!r:8}: {sorted(folded)}")
print(f"\nthe column {column} is covered by {sorted(folded)}")
