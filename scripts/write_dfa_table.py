"""Regenerate the packaged DFA table from the datatype definition file.

    python scripts/write_dfa_table.py [TARGET]

writes the DFA table of ``src/xvpa/data/xsd-datatypes.txt`` to TARGET,
by default the packaged ``src/xvpa/data/xsd-datatypes-dfa.txt``.  Run it
after any edit of the definition file: the loader ignores a table derived
from another version of the file and builds the DFAs from their patterns.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from xvpa.datatypes import DFA_TABLE_PATH, write_dfa_table  # noqa: E402

if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    write_dfa_table(sys.argv[1] if len(sys.argv) > 1 else DFA_TABLE_PATH)
